"""Bench-artifact schema regression: the committed JSONs keep their keys.

The repo-root ``BENCH_*.json`` files are the regression baselines future
PRs compare against, and CI smoke only re-runs the cheap paths — so a
bench refactor that silently renames or drops a top-level key would rot
every downstream consumer without failing anything.  This suite pins the
top-level schema (and the workload-entry schema where one exists) of
each committed artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

# artifact -> (required top-level keys, expected "bench" tag)
SCHEMAS = {
    "BENCH_engine.json": (
        {"bench", "n", "engines", "note", "results"},
        "engine-frontier",
    ),
    "BENCH_session.json": (
        {"bench", "rounds_per_workload", "note", "workloads"},
        "session-reuse",
    ),
    "BENCH_multipattern.json": (
        {"bench", "rounds_per_workload", "sequential_engine", "note", "workloads"},
        "multipattern-fusion",
    ),
    "BENCH_parallel.json": (
        {
            "bench",
            "host_cpus",
            "processes",
            "rounds_per_workload",
            "note",
            "workloads",
        },
        "parallel-schedule",
    ),
    "BENCH_storage.json": (
        {"bench", "n", "edges", "note", "cold_start", "fanout_rss", "membership"},
        "storage",
    ),
    "BENCH_guards.json": (
        {"bench", "n", "note", "overhead", "probe", "recovery"},
        "guards",
    ),
    "BENCH_planner.json": (
        {"bench", "rounds_per_cell", "note", "cells", "acceptance"},
        "planner",
    ),
    "BENCH_approx.json": (
        {
            "bench",
            "graph",
            "motifs",
            "rel_err_target",
            "confidence",
            "max_samples",
            "note",
            "exact",
            "reps",
            "acceptance",
        },
        "approx",
    ),
    "BENCH_service.json": (
        {
            "bench",
            "n",
            "edges",
            "requests_per_client",
            "patterns",
            "note",
            "levels",
            "acceptance",
        },
        "service",
    ),
}

# Per-workload keys for the workload-shaped artifacts.
WORKLOAD_KEYS = {
    "BENCH_session.json": {"n", "rounds", "best_warm_speedup_vs_cold"},
    "BENCH_multipattern.json": {"n", "kind", "rounds", "best_fused_speedup"},
    "BENCH_parallel.json": {
        "n",
        "kind",
        "pattern",
        "matches",
        "rounds",
        "best_speedup_vs_static",
    },
}


def _load(name: str) -> dict:
    path = REPO_ROOT / name
    assert path.exists(), f"{name} missing from the repo root"
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_top_level_keys_stable(name):
    required, tag = SCHEMAS[name]
    payload = _load(name)
    missing = required - payload.keys()
    assert not missing, f"{name} lost top-level key(s) {sorted(missing)}"
    assert payload["bench"] == tag


@pytest.mark.parametrize("name", sorted(WORKLOAD_KEYS))
def test_workload_entries_stable(name):
    payload = _load(name)
    assert payload["workloads"], f"{name} has no workloads"
    for workload, entry in payload["workloads"].items():
        missing = WORKLOAD_KEYS[name] - entry.keys()
        assert not missing, (
            f"{name} workload {workload!r} lost key(s) {sorted(missing)}"
        )
        assert entry["rounds"], f"{name} workload {workload!r} has no rounds"


def test_engine_results_rows_stable():
    payload = _load("BENCH_engine.json")
    assert payload["results"], "BENCH_engine.json has no result rows"
    row_keys = {
        "pattern", "tail", "avg_degree", "matches", "batch_speedup_vs_reference",
    }
    for row in payload["results"]:
        missing = row_keys - row.keys()
        assert not missing, f"engine sweep row lost key(s) {sorted(missing)}"
    # Two engines survive: the oracle and the batched engine, which must
    # keep beating the interpreter on a multi-vertex-core pattern at low
    # degree (why ``engine="auto"`` plans the batched engine everywhere).
    assert payload["engines"] == ["reference", "accel-batch"]
    assert any(
        row["multi_vertex_core"]
        and row["avg_degree_target"] <= 32
        and row["batch_speedup_vs_reference"] > 1.0
        for row in payload["results"]
    )
    assert "ACCEL_BATCH_MIN_AVG_DEGREE" not in payload["note"]
    assert set(payload["crossover"]) == {row["pattern"] for row in payload["results"]}


def test_engine_tail_cells_recorded():
    """One cell per count-only tail shape, each counted from set sizes."""
    payload = _load("BENCH_engine.json")
    shapes = {row["pattern"]: row["tail"] for row in payload["results"]}
    assert shapes["star-5"] == "sharedx4"
    assert shapes["diamond"] == "sharedx2"
    assert shapes["chain-4"] == "linkedx2"
    assert shapes["tailed-triangle"] == "unlinkedx2"  # the paw
    # A counted tail beats enumerating it by more at every degree >= 8.
    for row in payload["results"]:
        if row["pattern"] in ("star-5", "chain-4") and row["avg_degree_target"] >= 8:
            assert row["batch_speedup_vs_reference"] > 10.0, row


def test_multipattern_acceptance_recorded():
    """The committed artifact records a census win, not just timings."""
    payload = _load("BENCH_multipattern.json")
    census = payload["workloads"]["3-motif-census"]
    assert census["best_fused_speedup"] > 1.0


def test_parallel_acceptance_recorded():
    """Work stealing: never loses on uniform, wins the straggler regime."""
    payload = _load("BENCH_parallel.json")
    workloads = payload["workloads"]
    for name, entry in workloads.items():
        for P, speedup in entry["best_speedup_vs_static"].items():
            assert speedup >= 0.95, (
                f"{name}: dynamic lost to static at {P} processes"
            )
        for row in entry["rounds"]:
            assert {
                "processes",
                "static_makespan_seconds",
                "dynamic_makespan_seconds",
                "speedup_vs_static",
            } <= row.keys()
    flash = workloads["power-law-flash-crowd"]
    assert max(flash["best_speedup_vs_static"].values()) >= 1.5


def test_guards_acceptance_recorded():
    """Disarmed guardrails are free; a lost worker costs a round, not a rerun."""
    payload = _load("BENCH_guards.json")
    overhead = payload["overhead"]
    assert {
        "unguarded_seconds",
        "guard_off_seconds",
        "guarded_seconds",
        "guard_off_ratio",
        "guarded_ratio",
    } <= overhead.keys()
    assert overhead["guard_off_ratio"] <= 1.02, (
        "disarmed guardrail path exceeded the 2% overhead bar"
    )
    probe = payload["probe"]
    assert {"probe_seconds", "predicted_partials", "hub_count",
            "threshold", "explosive"} <= probe.keys()
    recovery = payload["recovery"]
    assert {
        "clean_seconds",
        "crash_seconds",
        "overhead_ratio",
        "death_chunk",
        "num_chunks",
    } <= recovery.keys()
    assert recovery["num_chunks"] > 0
    assert recovery["overhead_ratio"] >= 1.0


def test_service_acceptance_recorded():
    """Fused batching pays under concurrent load, and actually engaged."""
    payload = _load("BENCH_service.json")
    assert payload["levels"], "BENCH_service.json has no concurrency levels"
    cell_keys = {
        "clients",
        "requests",
        "seconds",
        "throughput_rps",
        "p50_ms",
        "p99_ms",
        "fusion_batch_rate",
        "deduped_requests",
        "max_batch_size",
    }
    for level in payload["levels"]:
        assert {"clients", "batched", "unbatched", "batched_speedup"} <= (
            level.keys()
        )
        for mode in ("batched", "unbatched"):
            missing = cell_keys - level[mode].keys()
            assert not missing, (
                f"service level {level['clients']} {mode} lost "
                f"key(s) {sorted(missing)}"
            )
        assert level["unbatched"]["fusion_batch_rate"] == 0.0
    acceptance = payload["acceptance"]
    assert acceptance["clients"] == 16
    assert acceptance["batched_speedup"] >= 1.3, (
        "batched throughput fell below 1.3x unbatched at 16 clients"
    )
    assert acceptance["fusion_batch_rate"] > 0.0


def test_planner_acceptance_recorded():
    """Adaptive planning never loses a cell and wins the skewed one big."""
    payload = _load("BENCH_planner.json")
    cells = payload["cells"]
    assert cells, "BENCH_planner.json has no sweep cells"
    cell_keys = {
        "n",
        "matches",
        "rounds",
        "fixed_engine",
        "auto_engine",
        "probe",
        "fixed_seconds",
        "auto_seconds",
        "speedup",
    }
    for name, cell in cells.items():
        missing = cell_keys - cell.keys()
        assert not missing, f"planner cell {name!r} lost key(s) {sorted(missing)}"
        assert cell["speedup"] >= 0.95, (
            f"adaptive plan lost cell {name!r} by more than 5%"
        )
        # The fixed ablation is schema-pinned: both arms are recorded.
        assert cell["fixed_engine"] in ("reference", "accel-batch")
        assert cell["auto_engine"] in ("reference", "accel-batch")
    skewed = cells["skewed-labeled-core"]
    assert skewed["speedup"] >= 1.3, (
        "adaptive planning lost its headline win: the labeled-core cell "
        "fell below 1.3x over the fixed thresholds"
    )
    # The win is an engine flip the fixed heuristic cannot see.
    assert skewed["fixed_engine"] == "reference"
    assert skewed["auto_engine"] == "accel-batch"
    acceptance = payload["acceptance"]
    assert acceptance["min_speedup"] >= 0.95
    assert acceptance["skewed_speedup"] >= 1.3


def test_approx_acceptance_recorded():
    """The sampling tier's headline: 5x over exact fusion within 5%."""
    payload = _load("BENCH_approx.json")
    assert payload["exact"]["counts"], "no exact census baseline recorded"
    rep_keys = {"seed", "seconds", "samples", "rel_err", "in_ci"}
    assert payload["reps"], "BENCH_approx.json has no repetitions"
    for rep in payload["reps"]:
        missing = rep_keys - rep.keys()
        assert not missing, f"approx rep lost key(s) {sorted(missing)}"
        assert set(rep["rel_err"]) == set(payload["motifs"])
    acceptance = payload["acceptance"]
    assert acceptance["speedup"] >= 5.0, (
        "sampling tier fell below 5x over the exact fused census"
    )
    assert acceptance["max_rel_err"] <= payload["rel_err_target"], (
        "median achieved relative error blew the 5% target"
    )
    assert acceptance["ci_coverage"] >= 0.90, (
        "empirical CI coverage fell below the 90% bar for 95% intervals"
    )
    # Worst-case cell is recorded transparently alongside the medians.
    assert acceptance["worst_rel_err"] >= acceptance["max_rel_err"]


def test_storage_acceptance_recorded():
    """The mmap tier's cold-start win and the membership kernels held."""
    payload = _load("BENCH_storage.json")
    cold = payload["cold_start"]
    assert {"best_seconds", "file_bytes", "mmap_speedup_vs_text"} <= cold.keys()
    assert cold["mmap_speedup_vs_text"] >= 5.0
    fanout = payload["fanout_rss"]
    assert fanout["fork"]["parent_heap_bytes"] > 0
    assert fanout["mmap"]["parent_extra_bytes"] == 0
    row_keys = {
        "queries",
        "num_hubs",
        "searchsorted_seconds",
        "roaring_seconds",
        "roaring_speedup",
    }
    assert payload["membership"], "no membership rounds recorded"
    for row in payload["membership"]:
        assert row_keys <= row.keys()
        assert row["num_hubs"] > 0