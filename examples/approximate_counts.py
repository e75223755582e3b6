#!/usr/bin/env python3
"""Approximate pattern counting with error bounds (the sampling tier).

Exact mining explores every match; the approximate tier samples level-0
frontiers through the same engines, reweights by inverse sampling
probability, and grows the sample adaptively until a requested relative
error is met.  This example:

1. counts triangles and tailed-triangles exactly with the engine,
2. estimates the same counts at several relative-error targets and
   checks the truth lies inside the reported confidence interval,
3. shows a capped-budget estimate, the exact-degeneration fallback, and
   planner auto-routing under a latency budget.

Run:  python examples/approximate_counts.py
"""

from repro.core.session import MiningSession
from repro.graph import barabasi_albert
from repro.pattern import Pattern, generate_clique


def main() -> None:
    graph = barabasi_albert(3_000, 6, seed=11, name="demo")
    session = MiningSession(graph)
    print(f"data graph: {graph!r}\n")

    triangle = generate_clique(3)
    tailed = Pattern.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])

    for name, pattern in [("triangle", triangle), ("tailed triangle", tailed)]:
        exact = session.count(pattern)
        print(f"--- {name}: exact = {exact:,}")
        for rel_err in (0.10, 0.05, 0.02):
            r = session.count(pattern, approx=rel_err, seed=1)
            err = abs(r.estimate - exact) / exact * 100
            print(
                f"  target {rel_err:>4.0%} -> {r.estimate:>12,.0f}"
                f"  (CI [{r.ci_low:,.0f}, {r.ci_high:,.0f}],"
                f" {r.samples} samples, actual error {err:.1f}%,"
                f" in CI: {r.within(exact)})"
            )
        print()

    # A hard sample cap trades accuracy for a latency bound ...
    capped = session.count(triangle, approx=0.05, max_samples=1_500, seed=2)
    print(f"capped at 1,500 samples: {capped.estimate:,.0f} "
          f"(stop: {capped.early_stop})")
    # ... and a cap covering the whole frontier degenerates to exact.
    full = session.count(
        triangle, approx=0.05, max_samples=graph.num_vertices, seed=2
    )
    print(f"budget >= frontier: {full.estimate:,.0f} (exact={full.exact})\n")

    # Planner auto-routing: a latency budget answers predicted-slow
    # queries from the sampling tier automatically.
    routed = session.count(generate_clique(4), latency_budget=1e-6, seed=3)
    kind = type(routed).__name__
    print(f"latency-budgeted 4-clique census came back as {kind}: "
          f"{float(routed):,.0f}")


if __name__ == "__main__":
    main()
