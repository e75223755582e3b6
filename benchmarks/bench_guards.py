"""Guardrail-overhead benchmark: what budgets, guards and crash
tolerance cost when you are *not* using them.

PR 7's execution guardrails ride the hot paths: every engine polls an
optional budget between frontier chunks, the session verbs route
through admission guards, and ``process_count``'s dynamic schedule runs
on crash-tolerant lease-board workers instead of a ``Pool``.  The
robustness story only holds if the disarmed cost is negligible, so this
bench pins two ratios:

* **guard-off overhead** — the disarmed guardrail path
  (``session.count`` with ``guard="off"``, no budget: one ``is None``
  check per frontier chunk) against a raw warm
  ``FrontierBatchedEngine.run`` of the same plan and frontier.  The
  acceptance bar (pinned in ``tests/test_bench_schema.py``) is <= 2%.
* **recovery overhead** — a crash-tolerant ``process_count`` run where
  one worker is killed deterministically at its first lease
  (``REPRO_FAULT_WORKER_DIE="0:0"``) against the same run with no
  fault: the price of losing a worker is one respawn round plus one
  re-run chunk, not a rerun of the query.

An armed-but-roomy run (hour-long deadline plus a ``downgrade`` probe)
and the probe's own stats are recorded for context.

Run the full measurement (writes ``BENCH_guards.json``)::

    python -m pytest benchmarks/bench_guards.py -q -s

The ``fast``-marked smoke is part of the CI benchmark matrix.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from benchmarks.common import timed

from repro.core import MiningSession, count
from repro.core.callbacks import Budget
from repro.graph import erdos_renyi, power_law
from repro.pattern import generate_clique
from repro.runtime import guards, process_count
from repro.runtime.parallel import FAULT_ENV

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_guards.json"

ROUNDS = 5
RECOVERY_ROUNDS = 3


def _workload():
    """Power-law counting workload: big enough that per-chunk polling
    would show up, skewed enough that the probe has hubs to find."""
    return power_law(12_000, gamma=2.3, seed=3, name="guard-workload")


def _engine_seconds(session, plan, starts) -> float:
    """One raw engine run: the pre-guardrail hot path, no session verb."""
    from repro.core import accel

    engine = accel.FrontierBatchedEngine(session.ordered)
    elapsed, _ = timed(
        lambda: engine.run(plan, start_vertices=starts, count_only=True)
    )
    return elapsed


@pytest.mark.fast
@pytest.mark.paper_artifact("guards")
def test_guards_smoke():
    """CI smoke: disarmed guards change nothing, recovery is exact."""
    g = erdos_renyi(80, 0.15, seed=2)
    pattern = generate_clique(3)
    session = MiningSession(g)
    expected = session.count(pattern)
    assert session.count(pattern, guard="off") == expected
    assert session.count(
        pattern, budget=Budget(deadline=3600.0), on_budget="partial"
    ) == expected
    estimate = guards.estimate_cost(session, pattern)
    assert estimate.sampled <= guards.PROBE_SAMPLE
    os.environ[FAULT_ENV] = "0:0"
    try:
        got = process_count(
            g, pattern, num_processes=2, schedule="dynamic", chunk_hint=8
        )
    finally:
        del os.environ[FAULT_ENV]
    assert got == expected


@pytest.mark.paper_artifact("guards")
def test_guards_emits_json(capsys):
    """Full measurement: guard-off and recovery overhead ratios."""
    graph = _workload()
    pattern = generate_clique(3)
    session = MiningSession(graph)
    plan = session.plan_for(pattern)
    starts = session._frontier(session._frontier_key(plan))
    expected = session.count(pattern)  # warm: derived arrays, plan, dispatch

    # --- guard-off overhead: disarmed verb path vs raw engine runs ---
    raw_rounds, off_rounds, armed_rounds = [], [], []
    roomy = Budget(deadline=3600.0)
    for _ in range(ROUNDS):
        raw_rounds.append(_engine_seconds(session, plan, starts))
        elapsed, got = timed(lambda: session.count(pattern, guard="off"))
        assert got == expected
        off_rounds.append(elapsed)
        elapsed, got = timed(
            lambda: session.count(
                pattern, guard="downgrade", budget=roomy, on_budget="partial"
            )
        )
        assert got == expected
        armed_rounds.append(elapsed)
    unguarded = min(raw_rounds)
    guard_off = min(off_rounds)
    armed = min(armed_rounds)

    # --- probe cost and verdict on the same workload ---
    probe_elapsed, estimate = timed(
        lambda: guards.estimate_cost(session, pattern)
    )

    # --- recovery overhead: one deterministic worker death vs clean ---
    recovery_graph = erdos_renyi(1_500, 0.02, seed=4, name="recovery")
    recovery_expected = count(recovery_graph, pattern)
    pool_kw = dict(num_processes=2, schedule="dynamic", chunk_hint=64)
    clean_rounds, crash_rounds = [], []
    num_chunks = None
    for _ in range(RECOVERY_ROUNDS):
        elapsed, got = timed(
            lambda: process_count(recovery_graph, pattern, **pool_kw)
        )
        assert got == recovery_expected
        clean_rounds.append(elapsed)
        os.environ[FAULT_ENV] = "0:0"
        try:
            elapsed, got = timed(
                lambda: process_count(recovery_graph, pattern, **pool_kw)
            )
        finally:
            del os.environ[FAULT_ENV]
        assert got == recovery_expected  # requeue restored exactness
        crash_rounds.append(elapsed)
    if num_chunks is None:
        from repro.runtime import ChunkLedger

        rec_session = MiningSession(recovery_graph)
        rec_plan = rec_session.plan_for(pattern)
        rec_ordered = rec_session.ordered
        rec_starts = rec_session._frontier(rec_session._frontier_key(rec_plan))
        ledger = ChunkLedger.build(
            list(rec_starts),
            weights=rec_ordered.degrees()[rec_starts] + 1,
            num_workers=pool_kw["num_processes"],
            chunk_hint=pool_kw["chunk_hint"],
        )
        num_chunks = len(ledger)
    clean = min(clean_rounds)
    crash = min(crash_rounds)

    payload = {
        "bench": "guards",
        "n": graph.num_vertices,
        "note": (
            "Disarmed-guardrail overhead and crash-recovery cost.  "
            "guard_off_ratio = session.count with guard='off' and no "
            "budget (the disarmed path: one is-None poll per frontier "
            "chunk) over a raw warm FrontierBatchedEngine.run of the "
            "same plan and frontier, best-of-rounds; acceptance <= "
            "1.02.  guarded_ratio arms an hour-long deadline plus a "
            "downgrade admission probe on the same call, for context.  "
            "recovery: process_count (dynamic, 2 workers) with "
            "REPRO_FAULT_WORKER_DIE='0:0' killing one worker at its "
            "first lease vs the same run clean; overhead_ratio = "
            "crash/clean, both returning the exact count — the price "
            "of a lost worker is a respawn round plus one requeued "
            "chunk, never a rerun."
        ),
        "overhead": {
            "pattern": "clique3",
            "matches": int(expected),
            "rounds": ROUNDS,
            "unguarded_seconds": unguarded,
            "guard_off_seconds": guard_off,
            "guarded_seconds": armed,
            "guard_off_ratio": guard_off / unguarded,
            "guarded_ratio": armed / unguarded,
        },
        "probe": {
            "probe_seconds": probe_elapsed,
            **estimate.as_dict(),
        },
        "recovery": {
            "rounds": RECOVERY_ROUNDS,
            "clean_seconds": clean,
            "crash_seconds": crash,
            "overhead_ratio": crash / clean,
            "death_spec": "0:0",
            "death_chunk": 0,
            "num_chunks": num_chunks,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print("\n=== guardrails: disarmed overhead and recovery ===")
        print(
            f"raw engine {unguarded:.4f}s | guard-off {guard_off:.4f}s "
            f"(x{guard_off / unguarded:.3f}) | armed {armed:.4f}s "
            f"(x{armed / unguarded:.3f})"
        )
        print(
            f"probe {probe_elapsed * 1e3:.2f}ms predicted "
            f"{estimate.predicted_partials:.3g} "
            f"(hubs {estimate.hub_count}, explosive {estimate.explosive})"
        )
        print(
            f"recovery clean {clean:.4f}s | crash {crash:.4f}s "
            f"(x{crash / clean:.2f}, {num_chunks} chunks)"
        )
        print(f"wrote {OUTPUT_PATH}")
