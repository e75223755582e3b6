"""Planned vs. fixed-threshold dispatch: the ablation behind the default.

Product dispatch has one policy: every query is probed once and
:mod:`repro.runtime.planner` plans the batched engine for it, with
frontier chunking and pool size from the *query's own* measured
frontier.  The policy it replaced looked at the *graph*: a global
``avg_degree >= 2.0`` picked the batched engine, the interpreter below.  That fixed threshold lives on only here, as the
ablation arm — the engine is pinned from it per cell — so the claim
"planning never loses to the threshold and wins where pattern and graph
disagree" stays measured.

The cells are the end-to-end benchmark's ``bench``-scale inputs
(``benchmarks/e2e/inputs.py``: the power-law ``G_pl``/``G_small``, the
labeled ``G_ba`` and ``G_fsm``) crossed with small and large patterns,
plus the cell the fixed rule gets wrong: a near-forest graph whose
global average degree keeps it on the pure-Python interpreter, hiding a
dense fully-labeled core that the batched engine serves.
Timings are warm (probe cached on the session, best-of-rounds) and
every cell asserts count parity, so the ratios are engine choice, not
noise or wrong answers.

Acceptance (pinned in ``tests/test_bench_schema.py``): planning never
loses a cell by more than 5% (``speedup >= 0.95``) and wins the
labeled-core cell by at least 1.3x.

Run the full measurement (writes ``BENCH_planner.json``)::

    python -m pytest benchmarks/bench_planner.py -q -s

The ``fast``-marked smoke is part of the CI benchmark matrix.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from benchmarks.common import timed
from benchmarks.e2e import inputs

from repro.core.session import MiningSession
from repro.graph.builder import from_edges
from repro.graph.generators import erdos_renyi
from repro.pattern.generators import generate_chain, generate_clique
from repro.runtime import planner

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_planner.json"

ROUNDS = 15
SEED = 1

# The dispatch rule this repo shipped before the planner became the
# only policy (core.session.ACCEL_BATCH_MIN_AVG_DEGREE, measured by
# bench_engine_frontier.py): batch at or above this *global* degree.
FIXED_MIN_AVG_DEGREE = 2.0


def fixed_engine(session: MiningSession) -> str:
    """The engine the fixed global threshold picks for this graph."""
    if session.ordered.avg_degree() >= FIXED_MIN_AVG_DEGREE:
        return "accel-batch"
    return "reference"


def hub_core_graph(core: int = 300, tail: int = 8000, p: float = 0.15,
                   seed: int = 42):
    """A dense labeled core drowned in unlabeled isolated vertices.

    Global average degree stays below the fixed batched-engine threshold
    (2.0) while the label-1 frontier — the only starts a fully-labeled
    clique query visits — is ~``core * p`` dense.  The shape the fixed
    heuristic cannot see and the probe measures directly.
    """
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(core)
        for j in range(i + 1, core)
        if rng.random() < p
    ]
    labels = [1] * core + [0] * tail
    return from_edges(edges, labels=labels, num_vertices=core + tail,
                      name="hub-core")


def labeled(pattern, label: int):
    for u in pattern:
        pattern.set_label(u, label)
    return pattern


def sweep_cells():
    """name -> (graph, pattern): e2e inputs x pattern size, + the core."""
    scale = inputs.SCALES["bench"]
    pl = inputs.g_pl(scale, SEED)
    small = inputs.g_small(scale, SEED)
    ba = inputs.g_ba(scale, SEED)
    fsm = inputs.g_fsm(scale, SEED)
    return {
        "pl-small": (pl, generate_clique(3)),
        "pl-large": (pl, generate_chain(4)),
        "small-small": (small, generate_clique(3)),
        "small-large": (small, generate_clique(4)),
        "ba-labeled-small": (ba, labeled(generate_clique(3), 0)),
        "ba-labeled-large": (ba, labeled(generate_chain(4), 0)),
        "fsm-labeled": (fsm, labeled(generate_chain(3), 0)),
        "skewed-labeled-core": (hub_core_graph(), labeled(generate_clique(3), 1)),
    }


def _measure_cell(graph, pattern) -> dict:
    """Warm fixed-vs-planned timings for one cell, with count parity."""
    session = MiningSession(graph)
    pinned = fixed_engine(session)
    fixed_count = session.count(pattern, engine=pinned)  # warm plan + CSR
    auto_count = session.count(pattern)  # warm probe cache
    assert auto_count == fixed_count
    chosen = session.last_query_plan
    fixed_rounds, auto_rounds = [], []
    for _ in range(ROUNDS):
        elapsed, got = timed(lambda: session.count(pattern, engine=pinned))
        assert got == fixed_count
        fixed_rounds.append(elapsed)
        elapsed, got = timed(lambda: session.count(pattern))
        assert got == fixed_count
        auto_rounds.append(elapsed)
    fixed_best = min(fixed_rounds)
    auto_best = min(auto_rounds)
    estimate = chosen.estimate
    return {
        "n": graph.num_vertices,
        "edges": graph.num_edges,
        "pattern_vertices": pattern.num_vertices,
        "matches": int(fixed_count),
        "rounds": ROUNDS,
        "fixed_engine": pinned,
        "auto_engine": chosen.engine,
        "probe": {
            "frontier_size": estimate.frontier_size,
            "avg_expansion": estimate.avg_expansion,
            "level1_volume": estimate.level1_volume,
            "hub_skew": estimate.hub_skew,
        },
        "fixed_seconds": fixed_best,
        "auto_seconds": auto_best,
        "speedup": fixed_best / auto_best,
    }


@pytest.mark.fast
@pytest.mark.paper_artifact("planner")
def test_planner_smoke():
    """CI smoke: planned runs keep exact counts on both regimes."""
    dense = MiningSession(erdos_renyi(200, 0.1, seed=2))
    pattern = generate_clique(3)
    assert dense.count(pattern) == dense.count(pattern, engine="reference")
    assert dense.last_query_plan.engine == "reference"  # the pinned rerun
    assert planner.plan_query(dense, pattern).engine == "accel-batch"

    core = MiningSession(hub_core_graph(core=60, tail=600))
    pattern = labeled(generate_clique(3), 1)
    assert core.count(pattern) == core.count(pattern, engine="reference")
    # The fixed rule reads the near-forest global degree; the planner
    # batches every unpinned query.  They must disagree here.
    assert fixed_engine(core) == "reference"
    assert planner.plan_query(core, pattern).engine == "accel-batch"


@pytest.mark.paper_artifact("planner")
def test_planner_emits_json(capsys):
    """Full sweep: planned >= fixed per cell, big win on the skewed cell."""
    cells = {}
    for name, (graph, pattern) in sweep_cells().items():
        cells[name] = _measure_cell(graph, pattern)

    speedups = {name: cell["speedup"] for name, cell in cells.items()}
    payload = {
        "bench": "planner",
        "rounds_per_cell": ROUNDS,
        "note": (
            "Planned dispatch (the only product policy: one bounded "
            "probe chooses engine, chunking and workers per "
            "query) against the fixed-threshold ablation (engine "
            "pinned per cell from the global avg_degree >= 2.0 rule "
            "product dispatch used before).  Cells are the e2e "
            "benchmark's bench-scale inputs (G_pl, G_small, G_ba, "
            "G_fsm; seed 1) x pattern size.  Warm best-of-rounds "
            "session.count timings, count parity asserted per round; "
            "speedup = fixed_seconds / auto_seconds.  "
            "'skewed-labeled-core' is the acceptance cell — a "
            "near-forest graph (global avg degree < 2 keeps the fixed "
            "rule on the reference engine) hiding a dense "
            "fully-labeled core that the batched engine serves.  "
            "Acceptance: every cell >= 0.95, the labeled-core "
            "cell >= 1.3."
        ),
        "cells": cells,
        "acceptance": {
            "min_speedup": min(speedups.values()),
            "max_speedup": max(speedups.values()),
            "skewed_cell": "skewed-labeled-core",
            "skewed_speedup": speedups["skewed-labeled-core"],
        },
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print("\n=== planned dispatch vs fixed threshold ===")
        for name, cell in cells.items():
            print(
                f"{name:24s} {cell['fixed_engine']:11s}->"
                f"{cell['auto_engine']:11s} fixed "
                f"{cell['fixed_seconds'] * 1e3:8.2f}ms planned "
                f"{cell['auto_seconds'] * 1e3:8.2f}ms "
                f"x{cell['speedup']:.3f}"
            )
        print(f"wrote {OUTPUT_PATH}")
