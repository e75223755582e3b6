"""Frontier-batched engine benchmark: avg-degree sweep + perf baseline.

Compares the two engines — reference interpreter and frontier-batched
(``accel-batch``) — across an average-degree sweep, and writes the
machine-readable timings to ``BENCH_engine.json`` at the repo root so
later changes have a baseline to regress against.  The sweep is why
the planner sends every unpinned query to the batched engine: frontier
batching amortizes numpy dispatch across whole match levels, so the
batched engine wins from the lowest swept degree (2) upward, including
on single-vertex-core patterns, whose tail count it vectorizes per
frontier row.  The multi-step tail cells (``star-5``, ``chain-4``, ``diamond``,
and ``tailed-triangle``, the paw) are the count-only tail program's
shapes; each row records which shape its plan compiled to under
``tail``.

Run the full sweep (writes ``BENCH_engine.json``, prints the table)::

    python -m pytest benchmarks/bench_engine_frontier.py -q -s

The ``fast``-marked smoke test is wired into CI so this harness cannot
silently rot.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.common import timed

from repro.core import count, generate_plan
from repro.core.accel import _compile_steps
from repro.graph import erdos_renyi
from repro.pattern import (
    Pattern,
    generate_chain,
    generate_clique,
    generate_star,
)
from repro.pattern.evaluation import pattern_p1

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_engine.json"

ENGINES = ("reference", "accel-batch")
SWEEP_N = 600
SWEEP_DEGREES = (2, 4, 8, 16, 32, 64, 128)

# One multi-vertex-core pattern per regime the dispatch rules reason
# about: core-intersection dominated (clique), mixed core+completion
# (tailed triangle), and tail-count dominated (single-vertex-core chain)
# — plus one cell per multi-step tail shape: one shared set (star-5,
# diamond), two linked steps (chain-4) and two unlinked steps (the
# tailed triangle is the paw).
PATTERNS = {
    "triangle": lambda: generate_clique(3),
    "tailed-triangle": lambda: Pattern.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3)]
    ),
    "chain-3": lambda: generate_chain(3),
    "star-5": lambda: generate_star(5),
    "chain-4": lambda: generate_chain(4),
    "diamond": pattern_p1,
}

MULTI_CORE_PATTERNS = ("triangle", "tailed-triangle", "chain-4", "diamond")

# The interpreter enumerates every tail step but the last, so the deep
# tails stop where its run passes a few seconds.
TAIL_DEGREES = (2, 4, 8, 16, 32)
DEGREES = {"star-5": TAIL_DEGREES, "chain-4": TAIL_DEGREES}


def _tail_shape(pattern) -> str:
    """The count-only tail program a default plan compiles to."""
    plan = generate_plan(pattern)
    tail = _compile_steps(plan)[-1]
    if tail is None:
        return "none"
    return f"{tail.kind}x{len(plan.noncore_steps) - tail.start}"


def _sweep_graph(avg_degree: int, n: int = SWEEP_N, seed: int = 7):
    return erdos_renyi(n, min(1.0, avg_degree / (n - 1)), seed=seed)


def _time_engines(graph, pattern) -> dict:
    """Per-engine wall time and count; counts must agree exactly."""
    count(graph, pattern, engine="accel-batch")  # warm CSR view + keys
    entry = {}
    counts = {}
    for engine in ENGINES:
        seconds, matches = timed(lambda: count(graph, pattern, engine=engine))
        entry[f"{engine}_seconds"] = seconds
        counts[engine] = matches
    assert len(set(counts.values())) == 1, f"engine disagreement: {counts}"
    entry["matches"] = counts["reference"]
    entry["batch_speedup_vs_reference"] = (
        entry["reference_seconds"] / entry["accel-batch_seconds"]
        if entry["accel-batch_seconds"] > 0
        else float("inf")
    )
    return entry


@pytest.mark.fast
@pytest.mark.paper_artifact("engine-frontier")
def test_frontier_smoke():
    """CI smoke: every engine runs and agrees on a small sparse graph."""
    g = _sweep_graph(8, n=150)
    for name, pattern_fn in PATTERNS.items():
        p = pattern_fn()
        expected = count(g, p, engine="reference")
        assert count(g, p, engine="accel-batch") == expected, name
        assert count(g, p, engine="accel-batch", frontier_chunk=64) == expected


@pytest.mark.paper_artifact("engine-frontier")
def test_frontier_sweep_emits_json(capsys):
    """Full sweep: beat the interpreter at every swept degree, log it."""
    results = []
    for name, pattern_fn in PATTERNS.items():
        pattern = pattern_fn()
        for degree in DEGREES.get(name, SWEEP_DEGREES):
            graph = _sweep_graph(degree)
            entry = _time_engines(graph, pattern)
            entry.update(
                pattern=name,
                tail=_tail_shape(pattern),
                multi_vertex_core=name in MULTI_CORE_PATTERNS,
                avg_degree_target=degree,
                avg_degree=round(graph.avg_degree(), 2),
                n=SWEEP_N,
            )
            results.append(entry)

    crossover = {
        name: min(
            (
                row["avg_degree_target"]
                for row in results
                if row["pattern"] == name
                and row["batch_speedup_vs_reference"] > 1.0
            ),
            default=None,
        )
        for name in PATTERNS
    }
    payload = {
        "bench": "engine-frontier",
        "n": SWEEP_N,
        "engines": list(ENGINES),
        "note": (
            "Wall-clock seconds per engine for count() across an "
            "erdos_renyi avg-degree sweep; measured basis for "
            "repro.runtime.planner planning the batched engine for "
            "every unpinned query.  `tail` is "
            "the count-only tail program's shape (kind x steps counted); "
            "`crossover` is the lowest swept degree where accel-batch "
            "beats the interpreter, per pattern."
        ),
        "crossover": crossover,
        "results": results,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print("\n=== engine frontier sweep (seconds) ===")
        header = f"{'pattern':<16} {'tail':<11} {'deg':>4} {'matches':>12}"
        header += "".join(f" {engine:>11}" for engine in ENGINES)
        header += f" {'batch-x':>8}"
        print(header)
        for row in results:
            line = (
                f"{row['pattern']:<16} {row['tail']:<11}"
                f" {row['avg_degree_target']:>4} {row['matches']:>12,}"
            )
            for engine in ENGINES:
                line += f" {row[f'{engine}_seconds']:>11.4f}"
            line += f" {row['batch_speedup_vs_reference']:>7.1f}x"
            print(line)
        print(f"crossover degree per pattern: {crossover}")
        print(f"wrote {OUTPUT_PATH}")

    # Acceptance: the batched engine beats the reference interpreter at
    # avg degree <= 32 on a multi-vertex-core pattern.
    low_degree_wins = [
        row
        for row in results
        if row["multi_vertex_core"]
        and row["avg_degree_target"] <= 32
        and row["batch_speedup_vs_reference"] > 1.0
    ]
    assert low_degree_wins, "batched engine no longer wins below degree 32"
