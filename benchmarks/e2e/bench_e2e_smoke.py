"""Smoke test of the end-to-end benchmark (CI: ``pytest benchmarks -m fast``).

Runs every workload of BENCHMARK.json at ``--scale tiny``, untraced and
traced, each in its own subprocess exactly as the benchmark command is
driven, and checks the contract of the last output line.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(job: tuple[str, int]) -> dict:
    workload, trace = job
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.run", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.fast
def test_spec_stays_within_the_contract():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.fast
def test_every_workload_emits_every_metric_and_verifies():
    jobs = [(w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run, jobs))
    for (workload, trace), result in zip(jobs, results):
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, workload
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, workload
        assert set(result["metrics"]) == {m["name"] for m in declared}, workload
        for metric in declared:
            cell = result["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"], (workload, metric["name"])
            assert math.isfinite(cell["value"]), (workload, metric["name"])
            if not trace:
                assert cell["value"] > 0, (workload, metric["name"])
