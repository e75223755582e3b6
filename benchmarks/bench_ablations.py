"""Design-choice ablations beyond the paper's figures.

DESIGN.md calls out several load-bearing choices in the engine and the
FSM substrate; each gets an A/B bench here:

* **high-to-low matching order traversal + degree ordering** (§5.2) —
  compared against starting tasks from low-degree vertices (the paper's
  argument: hub tasks prune more when walked high-to-low, shrinking the
  per-task variance that causes stragglers);
* **tail counting** — the engine's final completion step can count the
  last candidate set instead of enumerating it; compared by forcing
  enumeration with a callback;
* **FSM domain backend** — dense int-backed bitsets vs roaring-like
  compressed bitmaps (§5.5): bytes and wall time on the same workload;
* **stabilizer-chain planning** — plan-generation latency across pattern
  families, including the 14-clique whose group is 14! (the case that
  makes materializing automorphisms unusable);
* **AutoMine-like schedules vs PRG-U** — the paper models AutoMine with
  PRG-U; both are guided-but-symmetry-unaware, so their explored-match
  counts should sit within a small factor of each other.
"""

import pytest

from benchmarks.common import run_once, timed

from repro.baselines import automine_count, prgu_count_raw
from repro.bitmap import RoaringBitmap
from repro.core import EngineStats, count, generate_plan, match
from repro.core.engine import run_tasks
from repro.mining import fsm
from repro.pattern import generate_clique
from repro.pattern.evaluation import pattern_p1
from repro.profiling import ExplorationCounters


# ----------------------------------------------------------------------
# Task ordering (§5.2)
# ----------------------------------------------------------------------


@pytest.mark.paper_artifact("ablation")
@pytest.mark.parametrize("order", ["hub-first", "leaf-first"])
def test_task_order(benchmark, orkut, order):
    """Hub-first task issue order vs leaf-first (same total work)."""
    plan = generate_plan(pattern_p1())
    ordered, _ = orkut.degree_ordered()
    n = ordered.num_vertices
    starts = range(n - 1, -1, -1) if order == "hub-first" else range(n)

    def run():
        return run_tasks(ordered, plan, start_vertices=starts, count_only=True)

    matches = run_once(benchmark, run)
    benchmark.extra_info["matches"] = matches


# ----------------------------------------------------------------------
# Tail counting
# ----------------------------------------------------------------------


@pytest.mark.paper_artifact("ablation")
@pytest.mark.parametrize("mode", ["count-tail", "enumerate"])
def test_tail_counting(benchmark, patents, mode):
    """count() (tail fast path) vs match() with a counting callback."""
    clique = generate_clique(4)
    if mode == "count-tail":
        n = run_once(benchmark, lambda: count(patents, clique))
    else:
        def enumerate_all():
            seen = [0]

            def cb(_):
                seen[0] += 1

            match(patents, clique, callback=cb)
            return seen[0]

        n = run_once(benchmark, enumerate_all)
    benchmark.extra_info["matches"] = n


# ----------------------------------------------------------------------
# FSM domain backend (§5.5)
# ----------------------------------------------------------------------


@pytest.mark.paper_artifact("ablation")
@pytest.mark.parametrize("backend", ["dense-int", "roaring"])
def test_fsm_domain_backend(benchmark, mico_small, backend):
    factory = None if backend == "dense-int" else RoaringBitmap

    def run():
        return fsm(mico_small, 2, 3, bitset_factory=factory)

    result = run_once(benchmark, run)
    benchmark.extra_info["frequent"] = len(result.frequent)
    benchmark.extra_info["domain_bytes"] = result.domain_bytes


@pytest.mark.paper_artifact("ablation")
def test_print_domain_backend_shape(mico_small, capsys):
    """Same supports from both backends; report the byte trade-off."""
    dense = fsm(mico_small, 2, 3)
    roaring = fsm(mico_small, 2, 3, bitset_factory=RoaringBitmap)
    assert sorted(dense.frequent.values()) == sorted(roaring.frequent.values())
    with capsys.disabled():
        print("\n=== FSM domain backend ===")
        print(f"dense-int bytes:  {dense.domain_bytes:>10,}")
        print(f"roaring bytes:    {roaring.domain_bytes:>10,}")


# ----------------------------------------------------------------------
# Plan-generation latency (stabilizer chain)
# ----------------------------------------------------------------------


@pytest.mark.paper_artifact("ablation")
@pytest.mark.parametrize("k", [4, 8, 14])
def test_plan_latency_cliques(benchmark, k):
    """Planning a k-clique is polynomial despite |Aut| = k!."""
    plan = benchmark(lambda: generate_plan(generate_clique(k)))
    assert len(plan.ordered_cores) == 1  # total order -> one extension


# ----------------------------------------------------------------------
# AutoMine-like vs PRG-U (the paper's modeling assumption)
# ----------------------------------------------------------------------


@pytest.mark.paper_artifact("ablation")
def test_print_automine_vs_prgu(mico_small, capsys):
    clique = generate_clique(3)
    counters = ExplorationCounters(system="automine-like")
    t_am, n_am = timed(
        lambda: automine_count(mico_small, clique, counters=counters)
    )
    t_pu, raw_pu = timed(lambda: prgu_count_raw(mico_small, clique))
    stats = EngineStats()
    t_prg, n_prg = timed(lambda: count(mico_small, clique, stats=stats))
    assert n_am == n_prg == raw_pu // 6
    with capsys.disabled():
        print("\n=== AutoMine-like vs PRG-U vs Peregrine (3-cliques) ===")
        print(f"automine-like: {t_am:.4f}s  explored={counters.matches_explored:,}")
        print(f"prg-u raw:     {t_pu:.4f}s  matches(raw)={raw_pu:,}")
        print(f"peregrine:     {t_prg:.4f}s  partial={stats.partial_matches:,}")
    # Both unaware systems explore ~|Aut| more complete matches than the
    # engine reports; Peregrine touches the fewest partial matches.
    assert stats.partial_matches < counters.matches_explored


# ----------------------------------------------------------------------
# Engine dispatch: vectorized vs reference across the feature matrix
# ----------------------------------------------------------------------

WORKLOADS = {
    "unlabeled-clique": lambda: (generate_clique(4), {}),
    "labeled-chain": lambda: (_labeled_chain(), {}),
    "vertex-induced-star": lambda: (_star3(), {"edge_induced": False}),
    "anti-edge-square": lambda: (_anti_square(), {}),
    "anti-vertex-maximal": lambda: (_maximal3(), {}),
}


def _labeled_chain():
    from repro.pattern import generate_chain

    p = generate_chain(3)
    p.set_label(0, 0)
    p.set_label(2, 1)
    return p


def _star3():
    from repro.pattern import generate_star

    return generate_star(3)


def _anti_square():
    from repro.pattern import Pattern

    p = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    p.add_anti_edge(0, 2)
    return p


def _maximal3():
    from repro.mining.cliques import maximal_clique_pattern

    return maximal_clique_pattern(3)


@pytest.mark.paper_artifact("ablation")
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("engine", ["accel-batch", "reference"])
def test_engine_dispatch(benchmark, patents_labeled, workload, engine):
    """Batched vs interpreted engine on every pattern-feature class.

    Documents that the vectorized path engages on labeled,
    vertex-induced and anti-constraint workloads too; the density
    crossover ``engine="auto"`` plans by
    (``repro.runtime.planner.MIN_BATCH_EXPANSION``) is swept by
    ``bench_engine_frontier.py``.
    """
    pattern, kwargs = WORKLOADS[workload]()
    plan = generate_plan(pattern, **{**kwargs, "symmetry_breaking": True})
    benchmark.extra_info["features"] = plan.features()

    def run():
        return count(patents_labeled, pattern, engine=engine, **kwargs)

    matches = run_once(benchmark, run)
    benchmark.extra_info["matches"] = matches


@pytest.mark.paper_artifact("ablation")
def test_print_engine_dispatch_parity(patents_labeled, capsys):
    """Both engines agree on every feature combination (spot check)."""
    rows = []
    for name in sorted(WORKLOADS):
        pattern, kwargs = WORKLOADS[name]()
        t_acc, n_acc = timed(
            lambda: count(
                patents_labeled, pattern, engine="accel-batch", **kwargs
            )
        )
        t_ref, n_ref = timed(
            lambda: count(patents_labeled, pattern, engine="reference", **kwargs)
        )
        assert n_acc == n_ref
        rows.append((name, n_acc, t_acc, t_ref))
    with capsys.disabled():
        print("\n=== engine dispatch: accel-batch vs reference ===")
        for name, n, t_acc, t_ref in rows:
            ratio = t_ref / t_acc if t_acc else float("inf")
            print(
                f"{name:<22} matches={n:>10,}  accel-batch={t_acc:.4f}s"
                f"  reference={t_ref:.4f}s  speedup={ratio:.1f}x"
            )


# ----------------------------------------------------------------------
# Label-indexed task seeding (G-Miner's trick as an engine option)
# ----------------------------------------------------------------------


@pytest.mark.paper_artifact("ablation")
@pytest.mark.parametrize("mode", ["indexed", "unindexed"])
def test_label_index(benchmark, mico_small, mode):
    """Fully labeled 3-chain: seeding only label-compatible tasks."""
    from repro.pattern import generate_chain

    p = generate_chain(3)
    for u in range(3):
        p.set_label(u, u % 3)

    def run():
        return match(mico_small, p, label_index=(mode == "indexed"))

    n = run_once(benchmark, run)
    benchmark.extra_info["matches"] = n
