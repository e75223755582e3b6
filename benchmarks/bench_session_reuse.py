"""Session-reuse benchmark: cold per-call API vs. warm ``MiningSession``.

The service scenario the session API exists for: the same multi-pattern
workload (a motif census) arrives repeatedly against one graph.

* **cold** — the pre-session worst case: every query arrives with a
  fresh ``DataGraph`` handle, so each ``count()`` re-derives the degree
  ordering, rebuilds its degrees and adjacency keys, and regenerates the
  exploration plan;
* **warm** — one :class:`~repro.core.session.MiningSession` pinned on
  the graph serves every query: ordering and its arrays are derived once for
  the whole run;
* **warm-repeat** — a second identical round on the same session: on top
  of the shared graph state, every plan and start list is a cache hit.

Two workload regimes are measured.  The *light* census (3-motifs on a
larger graph) is derivation-dominated — the regime where reuse pays
(measured ~1.5x warm, ~2.5x on repeat rounds).  The *heavy* census
(4-motifs) is match-enumeration-dominated — reuse is then merely free,
which the numbers document (~1x): amortizing state can't speed up work
the engine genuinely has to do per query.

Machine-readable timings land in ``BENCH_session.json`` at the repo root
so future PRs have a regression baseline.  Run the full measurement
(writes the JSON, prints the table)::

    python -m pytest benchmarks/bench_session_reuse.py -q -s

The ``fast``-marked smoke test is wired into CI so this harness cannot
silently rot.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.common import speedup, timed

from repro.core import MiningSession, count
from repro.graph import DataGraph, erdos_renyi
from repro.pattern import generate_all_vertex_induced

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_session.json"

ROUNDS = 3

# name -> (n, avg degree, motif size, reuse-dominated?)
WORKLOADS = {
    "3-motif-census-light": (8000, 6, 3, True),
    "4-motif-census-heavy": (400, 8, 4, False),
}


def _bench_graph(n: int, degree: int, seed: int = 21) -> DataGraph:
    return erdos_renyi(n, min(1.0, degree / (n - 1)), seed=seed)


def _fresh_handle(graph: DataGraph) -> DataGraph:
    """A cold copy of ``graph``: same topology, no derived caches."""
    return DataGraph(
        [graph.neighbors(v) for v in graph.vertices()],
        labels=graph.labels(),
        name=graph.name,
        validate=False,
    )


def _cold_round(handles, patterns) -> dict:
    """Per-call API with a fresh graph handle per query (no shared state)."""
    return {
        p: count(h, p, edge_induced=False)
        for h, p in zip(handles, patterns)
    }


def _measure(graph: DataGraph, patterns) -> dict:
    # The cold handles are built OUTSIDE the timed region: a real cold
    # caller already holds its graph — only the per-query re-derivation
    # of ordering/derived arrays/plan should be charged to the cold path.
    handles = [_fresh_handle(graph) for _ in patterns]
    cold_seconds, cold_counts = timed(lambda: _cold_round(handles, patterns))

    session = MiningSession(graph)
    warm_seconds, warm_counts = timed(
        lambda: session.count_many(patterns, edge_induced=False)
    )
    repeat_seconds, repeat_counts = timed(
        lambda: session.count_many(patterns, edge_induced=False)
    )
    assert cold_counts == warm_counts == repeat_counts, "cold/warm disagree"
    return {
        "patterns": len(patterns),
        "matches_total": sum(warm_counts.values()),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_repeat_seconds": repeat_seconds,
        "warm_speedup_vs_cold": speedup(cold_seconds, warm_seconds),
        "repeat_speedup_vs_cold": speedup(cold_seconds, repeat_seconds),
        "session_cache": session.cache_info(),
    }


@pytest.mark.fast
@pytest.mark.paper_artifact("session-reuse")
def test_session_smoke():
    """CI smoke: warm session agrees with the cold per-call API."""
    graph = _bench_graph(n=120, degree=8)
    patterns = generate_all_vertex_induced(3)
    entry = _measure(graph, patterns)
    assert entry["matches_total"] > 0
    # Reuse happened: one ordering, plans all cache-hit on repeat.
    cache = entry["session_cache"]
    assert cache["ordered_built"]
    assert cache["plan_hits"] >= len(patterns)


@pytest.mark.paper_artifact("session-reuse")
def test_session_reuse_emits_json(capsys):
    """Full measurement: warm session beats cold per-call API, log it."""
    results = {}
    for name, (n, degree, size, reuse_dominated) in WORKLOADS.items():
        graph = _bench_graph(n, degree)
        patterns = generate_all_vertex_induced(size)
        rounds = [
            _measure(_fresh_handle(graph), patterns) for _ in range(ROUNDS)
        ]
        best = max(rounds, key=lambda e: e["warm_speedup_vs_cold"])
        results[name] = {
            "n": n,
            "avg_degree_target": degree,
            "motif_size": size,
            "reuse_dominated": reuse_dominated,
            "rounds": rounds,
            "best_warm_speedup_vs_cold": best["warm_speedup_vs_cold"],
            "best_repeat_speedup_vs_cold": max(
                e["repeat_speedup_vs_cold"] for e in rounds
            ),
        }

    payload = {
        "bench": "session-reuse",
        "rounds_per_workload": ROUNDS,
        "note": (
            "Wall-clock seconds for vertex-induced motif censuses: cold "
            "= per-call api with a fresh DataGraph handle per query "
            "(re-derives ordering/CSR view/plan every time), warm = one "
            "MiningSession (ordering+view shared, plans cached), "
            "warm_repeat = second census on the same session (all plan "
            "cache hits).  The light census is derivation-dominated "
            "(reuse pays); the heavy census is match-dominated (reuse "
            "is free)."
        ),
        "workloads": results,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print("\n=== session reuse (motif censuses, seconds) ===")
        print(
            f"{'workload':<24} {'round':>5} {'cold':>9} {'warm':>9}"
            f" {'repeat':>9} {'warm-x':>7} {'rep-x':>7}"
        )
        for name, entry in results.items():
            for i, row in enumerate(entry["rounds"]):
                print(
                    f"{name:<24} {i:>5} {row['cold_seconds']:>9.4f}"
                    f" {row['warm_seconds']:>9.4f}"
                    f" {row['warm_repeat_seconds']:>9.4f}"
                    f" {row['warm_speedup_vs_cold']:>6.2f}x"
                    f" {row['repeat_speedup_vs_cold']:>6.2f}x"
                )
        print(f"wrote {OUTPUT_PATH}")

    # Acceptance: on the derivation-dominated workload, amortizing
    # ordering/view/plan derivation across the census is a real win.
    light = results["3-motif-census-light"]
    assert light["best_warm_speedup_vs_cold"] > 1.1, (
        "session reuse no longer wins on the derivation-dominated census"
    )
    # And reuse must never *hurt* the match-dominated workload.
    heavy = results["4-motif-census-heavy"]
    assert heavy["best_warm_speedup_vs_cold"] > 0.9
