"""Approximate-counting benchmark: the sampling tier vs exact fusion.

ROADMAP item 4's estimator trades enumeration for inference: sampled
level-0 frontiers ride the same fused engine passes as the exact tier
(``repro.mining.sampling``), hub-first strata are counted exactly, and
uniform tail rounds are Horvitz-Thompson reweighted into unbiased
census estimates with Student-t confidence intervals.

The workload is the acceptance census: the four sparse 4-vertex motifs
(star, path, tailed triangle, cycle) on a truncated power-law graph —
the regime neighborhood sampling is built for, where the degree cutoff
bounds per-start work so the exhausted hub stratum stays cheap while
the homogeneous tail samples faithfully.  Eight seeded repetitions run
the identical estimator; the artifact records per-seed timing, achieved
per-motif error against the exact fused census, and empirical CI
coverage across all seed x motif cells.

Aggregation is fixed and recorded in the artifact: speedup compares the
exact wall time against the *median* repetition, accuracy is the
per-motif *median* achieved error (worst cell recorded alongside), and
coverage counts every cell — no repetition is dropped.

Acceptance (pinned in ``tests/test_bench_schema.py``): speedup >= 5x,
median achieved relative error <= 5% on every motif, CI coverage >= 90%
for the 95% intervals.

Run the full measurement (writes ``BENCH_approx.json``)::

    python -m pytest benchmarks/bench_approx.py -q -s

The ``fast``-marked smoke is part of the CI benchmark matrix.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

from benchmarks.common import timed

from repro.core.session import MiningSession
from repro.graph.generators import power_law
from repro.mining.sampling import HUB_EXHAUST, ApproxCount, approx_count_many
from repro.pattern.generators import generate_all_vertex_induced, generate_clique

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_approx.json"

# The acceptance graph: a truncated power-law (gamma on [d_min, d_max]).
# The cutoff matters — it is what keeps the top-1024 hub stratum from
# holding a third of the census work, which is exactly the regime where
# hub exhaustion caps the estimator's speedup.
GRAPH = dict(n=150_000, gamma=3.0, d_min=8, d_max=32, seed=17)

# The four sparse 4-vertex motifs; diamond and 4-clique are excluded
# because the configuration model realizes O(1) of them at this density
# (relative error against a count of ~0 is not a meaningful target).
MOTIF_NAMES = ("4-star", "4-path", "tailed-triangle", "4-cycle")

REL_ERR = 0.05
MAX_SAMPLES = 20_000
# The one geometry knob this census sets: it was measured with 1,024-start
# rounds (the product default is 128); HUB_EXHAUST is the product's,
# recorded in the artifact.
ROUND_STARTS = 1_024
SEEDS = tuple(range(1, 9))


def census_motifs():
    return generate_all_vertex_induced(4)[: len(MOTIF_NAMES)]


def _measure_rep(session, motifs, exact, seed: int) -> dict:
    """One seeded estimator run: timing, achieved error, CI coverage."""
    elapsed, results = timed(
        lambda: approx_count_many(
            session,
            motifs,
            rel_err=REL_ERR,
            max_samples=MAX_SAMPLES,
            seed=seed,
            round_starts=ROUND_STARTS,
            edge_induced=False,
        )
    )
    errors, covered = {}, {}
    for name, motif in zip(MOTIF_NAMES, motifs):
        r = results[motif]
        truth = exact[motif]
        errors[name] = abs(r.estimate - truth) / truth
        covered[name] = bool(r.ci_low <= truth <= r.ci_high)
    samples = results[motifs[0]].samples
    return {
        "seed": seed,
        "seconds": elapsed,
        "samples": samples,
        "rel_err": errors,
        "in_ci": covered,
    }


@pytest.mark.fast
@pytest.mark.paper_artifact("approx")
def test_approx_smoke():
    """CI smoke: estimates carry honest intervals, full budgets go exact."""
    graph = power_law(3_000, gamma=2.5, d_min=4, seed=3)
    session = MiningSession(graph)
    triangle = generate_clique(3)
    exact = session.count(triangle)
    estimate = session.count(triangle, approx=0.05, max_samples=600, seed=1)
    assert isinstance(estimate, ApproxCount)
    assert not estimate.exact
    assert estimate.within(exact, slack=4.0)
    # A budget covering the whole frontier degenerates to the exact count.
    full = session.count(
        triangle, approx=0.05, max_samples=graph.num_vertices, seed=1
    )
    assert full.exact
    assert float(full) == float(exact)


@pytest.mark.paper_artifact("approx")
def test_approx_emits_json(capsys):
    """Full census: >= 5x over exact fusion at <= 5% median error."""
    graph = power_law(**GRAPH)
    motifs = census_motifs()
    session = MiningSession(graph)
    # Warm plans, CSR view and the census transform off the clock with a
    # two-start pass; the timed exact run then measures pure mining.
    session.count_many(motifs, edge_induced=False, start_vertices=[0, 1])
    exact_seconds, exact = timed(
        lambda: session.count_many(motifs, edge_induced=False)
    )

    reps = [_measure_rep(session, motifs, exact, seed) for seed in SEEDS]

    median_seconds = statistics.median(r["seconds"] for r in reps)
    speedup = exact_seconds / median_seconds
    median_err = {
        name: statistics.median(r["rel_err"][name] for r in reps)
        for name in MOTIF_NAMES
    }
    worst_err = max(max(r["rel_err"].values()) for r in reps)
    cells = [r["in_ci"][name] for r in reps for name in MOTIF_NAMES]
    coverage = sum(cells) / len(cells)

    payload = {
        "bench": "approx",
        "graph": dict(GRAPH, edges=graph.num_edges),
        "motifs": list(MOTIF_NAMES),
        "rel_err_target": REL_ERR,
        "confidence": 0.95,
        "max_samples": MAX_SAMPLES,
        "hub_exhaust": HUB_EXHAUST,
        "round_starts": ROUND_STARTS,
        "note": (
            "Sampling-tier census (approx_count_many: hub-first exact "
            "stratum + uniform with-replacement tail rounds through the "
            "shared fused walk, Horvitz-Thompson reweighted, Student-t "
            "intervals) against the exact fused census on the same "
            "session.  Eight seeded repetitions of the identical "
            "estimator; speedup = exact_seconds / median rep seconds, "
            "accuracy = per-motif median achieved |estimate - exact| / "
            "exact (worst single cell recorded as worst_rel_err), "
            "ci_coverage = covered cells / all seed x motif cells.  "
            "Acceptance: speedup >= 5, every motif's median error <= "
            "5%, coverage >= 90%."
        ),
        "exact": {
            "seconds": exact_seconds,
            "counts": {
                name: exact[motif]
                for name, motif in zip(MOTIF_NAMES, motifs)
            },
        },
        "reps": reps,
        "acceptance": {
            "speedup": speedup,
            "median_seconds": median_seconds,
            "max_rel_err": max(median_err.values()),
            "median_rel_err": median_err,
            "worst_rel_err": worst_err,
            "ci_coverage": coverage,
            "cells": len(cells),
        },
    }
    assert speedup >= 5.0, f"sampling tier won only {speedup:.1f}x"
    assert max(median_err.values()) <= REL_ERR, (
        f"median achieved error {median_err} blew the 5% target"
    )
    assert coverage >= 0.90, f"CI coverage {coverage:.0%} below nominal"
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print("\n=== sampling tier vs exact fused census ===")
        print(
            f"exact {exact_seconds:6.2f}s   approx median "
            f"{median_seconds:6.2f}s   x{speedup:.2f}"
        )
        for name in MOTIF_NAMES:
            print(f"{name:16s} median err {median_err[name]:6.2%}")
        print(
            f"worst cell {worst_err:.2%}   CI coverage {coverage:.0%} "
            f"over {len(cells)} cells"
        )
        print(f"wrote {OUTPUT_PATH}")
