"""Compare two result files of ``python3 -m benchmarks.e2e.run --out``.

    python3 -m benchmarks.e2e.compare A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (base: A), the metric's bound from
BENCHMARK.json and a verdict:

``unresolved``  A's own quartile spread exceeds the bound, so the bound
                cannot be tested on these runs;
``worse``       B's median is worse than A's by more than the bound, or
                B failed a larger share of its operations;
``better``      B's median is better than A's by more than A's spread;
``same``        anything else.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .harness import median, quartiles

ROOT = Path(__file__).resolve().parents[2]


def column(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric] for run in runs]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    base = median(a)
    q1, q3 = quartiles(a)
    spread = (q3 - q1) / base
    if spread > bound:
        return "unresolved"
    gain = (median(b) - base) / base * (1.0 if better == "higher" else -1.0)
    if gain < -bound:
        return "worse"
    return "better" if gain > spread else "same"


def failed_share(runs: list[dict]) -> float:
    return sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        runs_a, runs_b = a["workloads"][name]["runs"], b["workloads"][name]["runs"]
        for metric in spec["end_to_end"]:
            va, vb = column(runs_a, metric["name"]), column(runs_b, metric["name"])
            rows.append((
                name, metric["name"], metric["unit"], median(va), quartiles(va), median(vb),
                quartiles(vb), median(vb) / median(va), metric["bound"],
                verdict(va, vb, metric["better"], metric["bound"]),
            ))
        fa, fb = failed_share(runs_a), failed_share(runs_b)
        rows.append((name, "failed_share", "ratio", fa, (fa, fa), fb, (fb, fb),
                     fb / fa if fa else 1.0 + fb, 0.0, "worse" if fb > fa else "same"))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"A = {argv[0]} ({a['host']['commit'][:12]}, n={len(a['seeds'])})   "
          f"B = {argv[1]} ({b['host']['commit'][:12]}, n={len(b['seeds'])})")
    print(f"{'workload':18s} {'metric':16s} {'unit':5s} {'A median [q1, q3]':36s} "
          f"{'B median [q1, q3]':36s} {'B/A':>7s} {'bound':>6s} verdict")
    for name, metric, unit, ma, qa, mb, qb, ratio, bound, outcome in rows:
        cell_a = f"{ma:.4f} [{qa[0]:.4f}, {qa[1]:.4f}]"
        cell_b = f"{mb:.4f} [{qb[0]:.4f}, {qb[1]:.4f}]"
        print(f"{name:18s} {metric:16s} {unit:5s} {cell_a:36s} {cell_b:36s} "
              f"{ratio:7.3f} {bound:6.2f} {outcome}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
