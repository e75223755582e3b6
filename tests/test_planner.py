"""Tests for the cost-model-driven query planner.

Covers the :mod:`repro.runtime.planner` selection logic (engine,
frontier chunk, pool size), the rule that caller pins always
win, the probe-once contract shared by admission and planning, result
parity between planned runs and the interpreter oracle, and regression
tests for the three estimator bugfixes that shipped with the planner:

* evenly-spaced probe sampling must use a rounded stride (an integer
  step degrades to consecutive hub-prefix entries on small frontiers);
* cached probe measurements must re-resolve the explosive threshold at
  decision time (retuning must flip admission on warm sessions);
* the conservative growth floor belongs to admission only — planners
  read the unclamped extrapolation.
"""

from __future__ import annotations

import pytest

from repro.core.session import MiningSession
from repro.errors import QueryRefusedError
from repro.graph.builder import from_edges
from repro.graph.generators import (
    chain_graph,
    erdos_renyi,
    power_law,
    star_graph,
)
from repro.pattern.generators import (
    generate_chain,
    generate_clique,
    generate_cycle,
    generate_star,
)
from repro.runtime import guards, planner

accel = pytest.importorskip("numpy", reason="planner engine choices need the accel tier")  # noqa: F841


def hub_tail_graph(num_hubs: int = 10, num_tail: int = 90):
    """Hubs interconnected and touching every tail; tail touches hubs only.

    Degree ordering puts the hubs in the frontier prefix, which is
    exactly the shape that exposed the probe's stride bias.
    """
    edges = []
    hubs = range(num_hubs)
    for i in hubs:
        for j in hubs:
            if i < j:
                edges.append((i, j))
        for t in range(num_hubs, num_hubs + num_tail):
            edges.append((i, t))
    return from_edges(edges, num_vertices=num_hubs + num_tail)


# ----------------------------------------------------------------------
# Bugfix regressions
# ----------------------------------------------------------------------


class TestProbeSamplingStride:
    def test_even_sample_on_hub_heavy_frontier(self):
        """The probe must stride the whole frontier, not its hub prefix.

        With 100 starts and a 60-probe budget the old integer step
        (``max(1, 100 // 60) == 1``) sampled the first 60 consecutive
        entries — all hubs plus their immediate tail — inflating
        ``avg_expansion``.  The rounded stride ``i * size // k`` visits
        60 distinct evenly-spaced entries instead.
        """
        g = hub_tail_graph()
        session = MiningSession(g)
        ordered = session.ordered
        n = ordered.num_vertices
        frontier = list(range(n - 1, -1, -1))  # hub-first probe order

        def fanout(v):
            return len(ordered.neighbors_below(v, v))

        k = 60
        even = [frontier[(i * n) // k] for i in range(k)]
        consecutive = frontier[:k]
        even_avg = sum(fanout(v) for v in even) / k
        biased_avg = sum(fanout(v) for v in consecutive) / k
        assert even_avg < biased_avg  # the fixture really is hub-heavy

        est = guards.estimate_cost(g, generate_clique(3), sample=k)
        assert est.sampled == k
        assert est.avg_expansion == pytest.approx(even_avg)
        assert est.avg_expansion != pytest.approx(biased_avg)

    def test_probe_indices_are_distinct_for_any_sample(self):
        for size in (1, 2, 7, 63, 64, 100, 1000):
            for k in (1, 2, 63, 64):
                k_eff = min(k, size)
                idx = [(i * size) // k_eff for i in range(k_eff)]
                assert len(set(idx)) == k_eff
                assert all(0 <= i < size for i in idx)


class TestThresholdRetune:
    def test_retuned_threshold_flips_admission_on_warm_session(
        self, monkeypatch
    ):
        """Cached probes must re-resolve the threshold at decision time.

        The session caches probe *measurements* per (pattern, flags);
        the old cache froze the whole estimate with the threshold baked
        in, so retuning ``EXPLOSIVE_PARTIALS`` silently never applied to
        warm sessions.
        """
        session = MiningSession(erdos_renyi(80, 0.2, seed=9))
        pattern = generate_clique(3)
        # Warm the probe cache under the roomy default threshold.
        assert session.count(pattern, guard="refuse") > 0
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        with pytest.raises(QueryRefusedError):
            session.count(pattern, guard="refuse")

    def test_resolve_threshold_rebinds_only_when_stale(self):
        est = guards.estimate_cost(erdos_renyi(60, 0.2, seed=1),
                                   generate_clique(3))
        same = guards.resolve_threshold(est)
        assert same is est  # fresh estimate: no copy
        retuned = guards.resolve_threshold(est, threshold=1.0)
        assert retuned.threshold == 1.0
        assert retuned.explosive
        assert retuned.avg_expansion == est.avg_expansion


class TestGrowthFloor:
    def test_admission_floors_but_raw_extrapolation_shrinks(self):
        """Sub-1.0 growth must shrink the raw prediction, not the guard's.

        On a path graph the second-level fanout is below 1; admission
        keeps the conservative floor (a shrinking frontier must not talk
        the guard out of refusing) while the planner-facing raw
        extrapolation honours the measured trend.
        """
        est = guards.estimate_cost(chain_graph(60), generate_chain(4))
        assert 0.0 < est.growth < 1.0
        deeper = est.pattern_vertices - 2
        assert est.predicted_partials == pytest.approx(est.level1_volume)
        assert est.predicted_partials_raw == pytest.approx(
            est.level1_volume * est.growth**deeper
        )
        assert est.predicted_partials_raw < est.predicted_partials

    def test_zero_growth_star_is_fully_degenerate(self):
        est = guards.estimate_cost(star_graph(60), generate_chain(3))
        assert est.growth == 0.0
        assert est.predicted_partials == pytest.approx(est.level1_volume)
        assert est.predicted_partials_raw == 0.0


# ----------------------------------------------------------------------
# Plan selection
# ----------------------------------------------------------------------


class TestPlanSelection:
    def test_dense_frontier_chooses_batched_engine(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(session, generate_clique(3))
        assert plan.engine == "accel-batch"
        assert plan.estimate is not None
        assert plan.reasons  # every choice is explained

    def test_tiny_level1_volume_stays_on_reference(self):
        session = MiningSession(chain_graph(30))
        plan = planner.plan_query(session, generate_chain(3))
        assert plan.engine == "reference"

    def test_pinned_engine_passes_through(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(
            session, generate_clique(3),
            session.options(engine="reference"),
        )
        assert plan.engine == "reference"
        assert any("pinned" in r for r in plan.reasons)

    def test_stats_hook_pins_reference(self):
        from repro.core.engine import EngineStats

        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(
            session, generate_clique(3),
            session.options(stats=EngineStats()),
        )
        assert plan.engine == "reference"

    def test_work_placement_is_not_planned(self):
        """Skewed or uniform, every frontier gets the one work-stealing
        placement: the plan carries no schedule and no reason about it,
        while the probe's skew still reaches the estimate."""
        for graph in (
            power_law(1500, gamma=2.1, d_min=4, seed=7),
            erdos_renyi(300, 0.05, seed=5),
        ):
            plan = planner.plan_query(
                MiningSession(graph), generate_clique(3), num_workers=4
            )
            assert not hasattr(plan, "schedule")
            assert not any(
                word in reason
                for reason in plan.reasons
                for word in ("static", "dynamic", "stride")
            )
            assert plan.estimate.hub_skew > 0

    def test_unpinned_pool_is_sized_by_measured_work(self, monkeypatch):
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 8)
        tiny = MiningSession(star_graph(20))
        plan = planner.plan_query(tiny, generate_chain(3), num_workers=None)
        assert plan.num_workers == 1
        busy = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(busy, generate_clique(3), num_workers=None)
        assert 1 < plan.num_workers <= 8

    def test_explosive_estimate_caps_an_unpinned_pool(self, monkeypatch):
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(
            session, generate_clique(4), num_workers=None
        )
        assert plan.num_workers == guards.DOWNGRADE_MAX_WORKERS

    def test_explosive_raw_prediction_tightens_frontier_chunk(
        self, monkeypatch
    ):
        monkeypatch.setattr(planner, "TIGHTEN_PARTIALS", 1.0)
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(session, generate_clique(3))
        assert plan.frontier_chunk == planner.PLANNED_FRONTIER_CHUNK
        pinned = planner.plan_query(
            session, generate_clique(3),
            session.options(frontier_chunk=512),
        )
        assert pinned.frontier_chunk == 512  # pins are kept exactly

    def test_apply_plan_rewrites_exec_options(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(session, generate_clique(3))
        opts = planner.apply_plan(plan, session.defaults)
        assert opts.engine == plan.engine
        assert opts.frontier_chunk == plan.frontier_chunk

    def test_plan_dict_and_describe_are_stable(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(session, generate_clique(3))
        payload = plan.as_dict()
        assert set(payload) >= {
            "engine", "frontier_chunk", "num_workers", "reasons", "estimate",
        }
        assert "schedule" not in payload
        assert payload["estimate"]["explosive"] is False
        text = plan.describe()
        assert f"engine={plan.engine}" in text
        assert "schedule=" not in text

    def test_workload_plan_fuses_when_any_member_is_worthy(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        patterns = [generate_clique(3), generate_chain(3)]
        plan = planner.plan_workload(session, patterns)
        assert plan.engine == "fused"
        empty = planner.plan_workload(session, [])
        assert empty.engine == "reference"

    def test_workload_plan_on_sparse_members_stays_reference(self):
        session = MiningSession(chain_graph(30))
        plan = planner.plan_workload(
            session, [generate_chain(3), generate_star(3)]
        )
        assert plan.engine == "reference"

    def test_plan_query_is_the_one_pattern_workload(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        pattern = generate_clique(3)
        assert planner.plan_query(session, pattern) == planner.plan_workload(
            session, [pattern]
        )

    def test_policy_strings_are_no_longer_a_plan(self):
        session = MiningSession(erdos_renyi(40, 0.2, seed=1))
        with pytest.raises(ValueError, match="plan must be an ExplorationPlan"):
            session.count(generate_clique(3), plan="auto")
        with pytest.raises(TypeError, match="unknown execution option"):
            session.count(generate_clique(3), planner="auto")

    def test_exploration_plan_object_still_accepted(self):
        session = MiningSession(erdos_renyi(60, 0.15, seed=4))
        pattern = generate_clique(3)
        plan = session.plan_for(pattern)
        assert session.options(plan=plan).plan is plan
        assert session.count(pattern, plan=plan) == session.count(pattern)


# ----------------------------------------------------------------------
# Pins always win
# ----------------------------------------------------------------------


class TestPinsWin:
    """What the caller passes explicitly is never overridden by the plan."""

    def test_stage_keeps_every_pinned_choice(self, monkeypatch):
        # A skewed, batch-worthy frontier with a prediction the planner
        # would tighten: every unpinned choice would come out different.
        monkeypatch.setattr(planner, "TIGHTEN_PARTIALS", 1.0)
        session = MiningSession(power_law(1500, gamma=2.1, d_min=4, seed=7))
        pattern = generate_clique(3)
        free = session._stage(
            [pattern], session.options(), workers=None
        ).opts
        assert (free.engine, free.frontier_chunk) == (
            "accel-batch", planner.PLANNED_FRONTIER_CHUNK
        )
        pins = dict(engine="reference", frontier_chunk=99_999)
        staged = session._stage([pattern], session.options(**pins), workers=5)
        opts, plan = staged.opts, staged.query_plan
        for name, value in pins.items():
            assert getattr(opts, name) == value, name
        assert plan.num_workers == 5
        assert (plan.engine, plan.frontier_chunk) == ("reference", 99_999)

    def test_pinned_fused_compiles_groups_of_one(self):
        # The planner states the group floor next to the engine rule;
        # _execute reads it instead of inferring the pin.
        from repro.core.session import FUSED_MIN_GROUP

        session = MiningSession(power_law(1500, gamma=2.1, d_min=4, seed=7))
        patterns = [generate_clique(3), generate_chain(3)]
        chosen = planner.plan_workload(session, patterns)
        pinned = planner.plan_workload(session, patterns, engine="fused")
        assert chosen.engine == pinned.engine == "fused"
        assert (chosen.min_group, pinned.min_group) == (FUSED_MIN_GROUP, 1)
        assert "min_group" not in pinned.as_dict()

    def test_explicit_thread_count_runs_exactly_that_many(self, monkeypatch):
        from repro.runtime.parallel import parallel_match

        toy = MiningSession(star_graph(20))
        pattern = generate_chain(3)
        expected = toy.count(pattern, engine="reference")
        result = parallel_match(toy, pattern, num_threads=3)
        assert (result.num_threads, result.matches) == (3, expected)
        assert len(result.per_thread_matches) == 3
        # None lets the plan size the pool: nothing to share on a toy.
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 8)
        sized = parallel_match(toy, pattern, num_threads=None)
        assert (sized.num_threads, sized.matches) == (1, expected)

    def test_explicit_process_count_reaches_a_real_pool(self, monkeypatch):
        from repro.runtime import parallel

        pools = []
        drain = parallel._tolerant_count

        def recording(ctx, num_workers, *rest):
            pools.append(num_workers)
            return drain(ctx, num_workers, *rest)

        monkeypatch.setattr(parallel, "_tolerant_count", recording)
        toy = MiningSession(star_graph(20))
        pattern = generate_chain(3)
        expected = toy.count(pattern, engine="reference")
        assert parallel.process_count(toy, pattern, num_processes=2) == expected
        assert pools == [2]
        # None lets the plan size the pool: a toy runs in-process.
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 8)
        assert parallel.process_count(toy, pattern, num_processes=None) == expected
        assert pools == [2]


# ----------------------------------------------------------------------
# Probe-once contract
# ----------------------------------------------------------------------


class TestProbeOnce:
    @pytest.fixture()
    def counting(self, monkeypatch):
        calls = []
        real = guards.probe

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(guards, "probe", wrapper)
        return calls

    def test_guarded_planned_query_probes_exactly_once(self, counting):
        """Admission and planning share one probe walk per query."""
        session = MiningSession(erdos_renyi(120, 0.1, seed=2))
        session.count(generate_clique(3), guard="downgrade")
        assert len(counting) == 1

    def test_warm_session_never_reprobes(self, counting):
        session = MiningSession(erdos_renyi(120, 0.1, seed=2))
        pattern = generate_clique(3)
        session.count(pattern, guard="downgrade")
        session.count(pattern)
        session.match(pattern, lambda m: None, guard="refuse")
        session.count_many([pattern, pattern])
        assert len(counting) == 1

    def test_sampling_rounds_never_reprobe(self, counting):
        session = MiningSession(power_law(3000, gamma=2.3, d_min=3, seed=1))
        estimate = session.count(generate_clique(3), approx=0.2, seed=1)
        assert estimate.rounds >= 4
        assert len(counting) == 1

    def test_distinct_flags_probe_separately(self, counting):
        session = MiningSession(erdos_renyi(120, 0.1, seed=2))
        pattern = generate_clique(3)
        session.count(pattern)
        session.count(pattern, symmetry_breaking=False)
        assert len(counting) == 2


# ----------------------------------------------------------------------
# Planned runs pin the interpreter oracle
# ----------------------------------------------------------------------


PARITY_GRAPHS = {
    "uniform": lambda: erdos_renyi(120, 0.08, seed=3),
    "skewed": lambda: power_law(200, gamma=2.1, d_min=3, seed=5),
    "star": lambda: star_graph(40),
    "hub-tail": hub_tail_graph,
}

PARITY_PATTERNS = {
    "clique:3": generate_clique(3),
    "chain:3": generate_chain(3),
    "cycle:4": generate_cycle(4),
    "star:3": generate_star(3),
}


class TestPlannedParity:
    @pytest.mark.parametrize("graph_name", sorted(PARITY_GRAPHS))
    @pytest.mark.parametrize("pattern_name", sorted(PARITY_PATTERNS))
    @pytest.mark.parametrize("edge_induced", [True, False])
    def test_counts_identical(self, graph_name, pattern_name, edge_induced):
        session = MiningSession(PARITY_GRAPHS[graph_name]())
        pattern = PARITY_PATTERNS[pattern_name]
        oracle = session.count(
            pattern, edge_induced=edge_induced, engine="reference"
        )
        assert session.count(pattern, edge_induced=edge_induced) == oracle

    @pytest.mark.parametrize("pattern_name", ["clique:3", "chain:3"])
    def test_match_multisets_identical(self, pattern_name):
        session = MiningSession(erdos_renyi(100, 0.08, seed=11))
        pattern = PARITY_PATTERNS[pattern_name]

        def collect(engine):
            rows = []
            session.match(
                pattern,
                lambda m: rows.append(tuple(m.mapping)),
                engine=engine,
            )
            return sorted(rows)

        assert collect("auto") == collect("reference")

    def test_count_many_identical(self):
        session = MiningSession(erdos_renyi(150, 0.08, seed=7))
        patterns = list(PARITY_PATTERNS.values())
        oracle = session.count_many(patterns, engine="reference")
        assert session.count_many(patterns) == oracle

    def test_last_query_plan_recorded(self):
        session = MiningSession(erdos_renyi(120, 0.1, seed=2))
        assert session.last_query_plan is None
        session.count(generate_clique(3))
        recorded = session.last_query_plan
        assert isinstance(recorded, planner.QueryPlan)
        assert recorded.engine == "accel-batch"
