"""Multi-pattern fusion benchmark: fused runner vs. sequential per-pattern.

The workload the fused runner exists for: one ``count_many`` (or one FSM
round's ``match_batches_many``) over a set of patterns against one
graph.  Both sides run on the *same warm session* and the same batched
engine, so the measured delta is exactly the fusion:

* **sequential** — one ``count`` (or ``match_batches``) call per
  pattern: every pattern walks its own level-0 frontier as a fused
  group of one, the pre-fusion behaviour of ``count_many``;
* **fused** — one multi-pattern call: one shared frontier walk whose
  first expansions are memoised per slice
  (:class:`repro.core.accel.SharedFrontierGathers` stores the engine
  kernel's own sub-blocks per ``(bounded below, bounded above, label)``
  variant, so the first member computes them and the rest replay them),
  and — for the count-only vertex-induced censuses — the shared
  non-induced basis of :mod:`repro.core.multipattern` (anti-edge-free
  plans hit the engine's arithmetic tail counts; induced counts
  demultiplex by exact Möbius inversion).

Three regimes are measured.  The 3- and 4-motif censuses are where
fusion multiplies (the 4-census closure collapses six anti-edge-heavy
induced counts onto one cheap basis); the FSM-style structural round
streams every match into per-pattern batch sinks, where the vectorized
domain group-by dominates and fusion is merely free (~1x) — the numbers
document both.

Machine-readable timings land in ``BENCH_multipattern.json`` at the repo
root.  Run the full measurement (writes the JSON, prints the table)::

    python -m pytest benchmarks/bench_multipattern.py -q -s

The ``fast``-marked smoke test is wired into CI so this harness cannot
silently rot.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.common import speedup, timed

from repro.core import MiningSession
from repro.graph import DataGraph, erdos_renyi, with_random_labels
from repro.pattern import (
    Pattern,
    generate_all_vertex_induced,
    generate_chain,
    generate_clique,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_multipattern.json"

ROUNDS = 3

# name -> (n, avg degree, kind, kind arg)
WORKLOADS = {
    "3-motif-census": (8000, 6, "census", 3),
    "4-motif-census": (600, 8, "census", 4),
    "fsm-round-structurals": (4000, 8, "fsm-round", 3),
}


def _bench_graph(n: int, degree: int, labels: int | None, seed: int = 21) -> DataGraph:
    graph = erdos_renyi(n, min(1.0, degree / (n - 1)), seed=seed)
    if labels is not None:
        graph = with_random_labels(graph, labels, seed=seed)
    return graph


def _census_round(session: MiningSession, patterns, fused: bool) -> dict:
    if fused:
        return session.count_many(patterns, edge_induced=False)
    return {p: session.count(p, edge_induced=False) for p in patterns}


def _fsm_round(session: MiningSession, structurals, fused: bool) -> list[int]:
    """One FSM-style structural round: stream matches into per-pattern sinks."""
    rows = [0] * len(structurals)

    def sink(index: int):
        def on_batch(batch) -> None:
            rows[index] += batch.shape[0]

        return on_batch

    sinks = [sink(i) for i in range(len(structurals))]
    if fused:
        session.match_batches_many(structurals, sinks, edge_induced=True)
    else:
        for pattern, on_batch in zip(structurals, sinks):
            session.match_batches(pattern, on_batch, edge_induced=True)
    return rows


def _warm(session: MiningSession, run) -> None:
    """Warm both paths once (plans, CSR view, census transform) and
    assert fused/sequential agreement before any timing happens."""
    expected = run(session, False)
    assert run(session, True) == expected, "fused/sequential disagree"


def _measure(session: MiningSession, run) -> dict:
    sequential_seconds, _ = timed(lambda: run(session, False))
    fused_seconds, _ = timed(lambda: run(session, True))
    return {
        "sequential_seconds": sequential_seconds,
        "fused_seconds": fused_seconds,
        "fused_speedup": speedup(sequential_seconds, fused_seconds),
    }


def _workload_runner(kind: str, arg: int):
    if kind == "census":
        patterns = generate_all_vertex_induced(arg)
        return patterns, lambda session, fused: _census_round(
            session, patterns, fused
        )
    structurals = [
        Pattern.from_edges([(0, 1)]),
        generate_chain(3),
        generate_clique(3),
    ]
    return structurals, lambda session, fused: _fsm_round(
        session, structurals, fused
    )


@pytest.mark.fast
@pytest.mark.paper_artifact("multipattern-fusion")
def test_multipattern_smoke():
    """CI smoke: fused execution agrees with sequential on both shapes."""
    session = MiningSession(_bench_graph(n=150, degree=8, labels=None))
    _warm(session, _workload_runner("census", 3)[1])
    labeled = MiningSession(_bench_graph(n=150, degree=8, labels=3))
    _warm(labeled, _workload_runner("fsm-round", 3)[1])


@pytest.mark.paper_artifact("multipattern-fusion")
def test_multipattern_emits_json(capsys):
    """Full measurement: fused beats sequential on censuses, log it."""
    results = {}
    for name, (n, degree, kind, arg) in WORKLOADS.items():
        labels = 3 if kind == "fsm-round" else None
        graph = _bench_graph(n, degree, labels)
        session = MiningSession(graph)
        patterns, run = _workload_runner(kind, arg)
        _warm(session, run)
        rounds = [_measure(session, run) for _ in range(ROUNDS)]
        results[name] = {
            "n": n,
            "avg_degree_target": degree,
            "kind": kind,
            "patterns": len(patterns),
            "rounds": rounds,
            "best_fused_speedup": max(e["fused_speedup"] for e in rounds),
        }

    payload = {
        "bench": "multipattern-fusion",
        "rounds_per_workload": ROUNDS,
        "sequential_engine": "accel-batch",
        "note": (
            "Wall-clock seconds per multi-pattern workload on one warm "
            "MiningSession: sequential = one count/match_batches call per "
            "pattern (own frontier walk each), fused = one multi-pattern "
            "call (shared frontier walk + per-slice memo of first expansions; "
            "count-only vertex-induced censuses additionally route "
            "through the shared non-induced basis with exact Möbius "
            "demultiplexing).  Censuses are where fusion multiplies; the "
            "FSM-style streaming round is dominated by the per-batch "
            "domain group-by, where fusion is merely free (~1x)."
        ),
        "workloads": results,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print("\n=== multi-pattern fusion (seconds) ===")
        print(
            f"{'workload':<24} {'round':>5} {'sequential':>11}"
            f" {'fused':>9} {'speedup':>8}"
        )
        for name, entry in results.items():
            for i, row in enumerate(entry["rounds"]):
                print(
                    f"{name:<24} {i:>5} {row['sequential_seconds']:>11.4f}"
                    f" {row['fused_seconds']:>9.4f}"
                    f" {row['fused_speedup']:>7.2f}x"
                )
        print(f"wrote {OUTPUT_PATH}")

    # Acceptance: fused count_many beats sequential per-pattern execution
    # on the motif censuses (the multiplicative regime).
    assert results["3-motif-census"]["best_fused_speedup"] > 1.2, (
        "fusion no longer wins the 3-motif census"
    )
    assert results["4-motif-census"]["best_fused_speedup"] > 2.0, (
        "fusion no longer wins the 4-motif census"
    )
    # Fusion must never hurt the streaming FSM round.
    assert results["fsm-round-structurals"]["best_fused_speedup"] > 0.85