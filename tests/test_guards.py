"""Tests for execution guardrails: budgets, meters and admission guards.

Covers the :class:`repro.core.callbacks.Budget` spec and its armed
:class:`~repro.core.callbacks.BudgetMeter`, the bounded probe walk in
:mod:`repro.runtime.guards`, the ``guard=`` / ``latency_budget`` routing
of the one dispatch stage through every surface that reaches it, and
the acceptance scenario — a short deadline on a power-law census
returning a truncated partial through the frontier-batched engine
(asserted structurally via engine dispatch, never via timing).
"""

import asyncio
import time

import pytest

from repro.core.callbacks import Budget, BudgetMeter
from repro.core.session import ExecOptions, MiningSession
from repro.errors import (
    BudgetExceededError,
    MatchingError,
    PartialResult,
    QueryRefusedError,
)
from repro.graph.generators import (
    erdos_renyi,
    power_law,
    star_graph,
    with_random_labels,
)
from repro.mining import fsm, labeled_motif_counts
from repro.mining.sampling import ApproxCount
from repro.pattern.generators import generate_chain, generate_clique
from repro.pattern.pattern import Pattern
from repro.runtime import guards, planner
from repro.runtime.parallel import parallel_match, process_count_many
from repro.service import MiningService, ServiceConfig


class TestBudgetSpec:
    def test_defaults_are_unlimited(self):
        b = Budget()
        assert b.deadline is None and b.max_matches is None
        assert b.max_frontier_rows is None
        assert b.max_expanded_partials is None

    @pytest.mark.parametrize(
        "field",
        ["deadline", "max_matches", "max_frontier_rows",
         "max_expanded_partials"],
    )
    def test_limits_must_be_positive(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            Budget(**{field: 0})

    def test_meter_arms_a_fresh_clock_per_run(self):
        b = Budget(deadline=60.0)
        first = b.meter()
        time.sleep(0.002)
        second = b.meter()
        assert second.deadline_at > first.deadline_at


class TestBudgetMeter:
    def test_match_cap_trips_with_partial(self):
        meter = Budget(max_matches=10).meter()
        meter.check(9)  # below the cap: no trip
        meter.levels_completed = 4
        with pytest.raises(BudgetExceededError) as info:
            meter.check(10)
        partial = info.value.partial
        assert isinstance(partial, PartialResult)
        assert partial == 10
        assert partial.levels_completed == 4
        assert "cap 10" in partial.reason

    def test_frontier_row_cap_trips_even_with_zero_matches(self):
        meter = Budget(max_frontier_rows=100).meter()
        meter.charge_rows(64)
        meter.check(0)
        meter.charge_rows(64)
        with pytest.raises(BudgetExceededError) as info:
            meter.check(0)
        assert info.value.partial == 0
        assert "frontier rows" in info.value.partial.reason

    def test_expanded_partial_cap_trips(self):
        meter = Budget(max_expanded_partials=1000).meter()
        meter.charge_partials(1000)
        with pytest.raises(BudgetExceededError, match="expanded partials"):
            meter.check(0)

    def test_elapsed_deadline_trips(self):
        meter = Budget(deadline=1e-9).meter()
        time.sleep(0.001)
        with pytest.raises(BudgetExceededError, match="deadline"):
            meter.check(0)

    def test_unarmed_limits_never_trip(self):
        meter = Budget(deadline=3600.0).meter()
        meter.charge_rows(10**9)
        meter.charge_partials(10**9)
        meter.check(10**9)


class TestEstimateCost:
    def test_probe_is_bounded(self):
        g = erdos_renyi(2000, 0.01, seed=3)
        est = guards.estimate_cost(g, generate_clique(3))
        assert est.sampled <= guards.PROBE_SAMPLE
        assert est.frontier_size <= 2000
        assert est.predicted_partials > 0

    def test_probe_distinguishes_power_law_from_uniform(self):
        # Same vertex count and matched average degree: on the skewed
        # graph the hub prefix must be detected and its worst-case
        # expansion must dwarf anything the uniform frontier shows.
        skewed = power_law(1500, gamma=2.1, d_min=4, seed=7)
        avg_degree = 2 * skewed.num_edges / skewed.num_vertices
        uniform = erdos_renyi(1500, avg_degree / 1499, seed=7)
        pattern = generate_clique(4)
        est_skewed = guards.estimate_cost(skewed, pattern)
        est_uniform = guards.estimate_cost(uniform, pattern)
        assert est_skewed.hub_count > 0
        assert est_uniform.hub_count == 0
        assert est_skewed.max_expansion > est_uniform.max_expansion

    def test_trivial_pattern_short_circuits(self):
        est = guards.estimate_cost(star_graph(5), Pattern(num_vertices=1))
        assert est.sampled == 0
        assert est.predicted_partials == est.frontier_size

    def test_threshold_resolved_at_call_time(self, monkeypatch):
        g = erdos_renyi(60, 0.2, seed=1)
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        est = guards.estimate_cost(g, generate_clique(3))
        assert est.threshold == 1.0
        assert est.explosive

    def test_as_dict_reports_verdict(self):
        g = erdos_renyi(60, 0.2, seed=1)
        d = guards.estimate_cost(g, generate_clique(3)).as_dict()
        assert set(d) >= {"frontier_size", "predicted_partials",
                          "threshold", "explosive", "hub_count"}


class TestAdmissionModes:
    @pytest.fixture()
    def session(self):
        return MiningSession(erdos_renyi(80, 0.2, seed=9))

    def test_invalid_guard_value_rejected(self, session):
        with pytest.raises(ValueError, match="guard must be one of"):
            session.count(generate_clique(3), guard="maybe")
        with pytest.raises(ValueError, match="on_budget must be one of"):
            session.count(generate_clique(3), on_budget="ignore")

    def test_guard_off_is_inert(self, session, monkeypatch):
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        expected = session.count(generate_clique(3))
        assert session.count(generate_clique(3), guard="off") == expected

    def test_downgrade_tightens_frontier_chunk(self, monkeypatch):
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        est = guards.estimate_cost(erdos_renyi(80, 0.2, seed=9),
                                   generate_clique(3))
        opts = guards.admit(est, ExecOptions(guard="downgrade"))
        assert opts.frontier_chunk == guards.DOWNGRADE_FRONTIER_CHUNK
        kept = guards.admit(
            est, ExecOptions(guard="downgrade", frontier_chunk=64)
        )
        assert kept.frontier_chunk == 64  # never loosened


# ----------------------------------------------------------------------
# One stage, many surfaces: the routing table
# ----------------------------------------------------------------------

PATTERN = generate_clique(3)
WORKERS = 4  # asked of the two runtimes; guard="downgrade" caps it


def _via_count(graph, options):
    session = MiningSession(graph, **options)
    return session.count(PATTERN), session.last_query_plan


def _via_count_many(graph, options):
    session = MiningSession(graph, **options)
    counts = session.count_many([PATTERN, generate_chain(3)])
    return counts[PATTERN], session.last_query_plan


def _via_match_batches(graph, options):
    session = MiningSession(graph, **options)
    rows = []
    total = session.match_batches(PATTERN, rows.append)
    assert sum(len(batch) for batch in rows) == total
    return total, session.last_query_plan


def _via_match_many(graph, options):
    session = MiningSession(graph, **options)
    seen = []
    totals = session.match_many([PATTERN, generate_chain(3)], [seen.append, None])
    assert len(seen) == totals[0]
    return totals[0], session.last_query_plan


def _via_match_batches_many(graph, options):
    session = MiningSession(graph, **options)
    rows = [], []
    totals = session.match_batches_many(
        [PATTERN, generate_chain(3)], [rows[0].append, rows[1].append]
    )
    assert [sum(len(b) for b in batches) for batches in rows] == totals
    return totals[0], session.last_query_plan


def _via_aggregate(graph, options):
    session = MiningSession(graph, **options)
    by_edges = session.aggregate(
        [PATTERN, generate_chain(3)], lambda m: (m.pattern.num_edges, 1)
    )
    return by_edges[PATTERN.num_edges], session.last_query_plan


def _via_aggregate_threads(graph, options):
    session = MiningSession(graph, **options)
    by_edges = session.aggregate(
        PATTERN, lambda m: (m.pattern.num_edges, 1), num_threads=WORKERS
    )
    return by_edges[PATTERN.num_edges], session.last_query_plan


def _via_process_count_many(graph, options):
    session = MiningSession(graph, **options)
    counts = process_count_many(session, [PATTERN], num_processes=WORKERS)
    return counts[PATTERN], session.last_query_plan


def _via_parallel_match(graph, options):
    session = MiningSession(graph, **options)
    result = parallel_match(session, PATTERN, num_threads=WORKERS)
    assert result.num_threads == session.last_query_plan.num_workers
    return result.matches, session.last_query_plan


class _Echo:
    """The service's plan echo, shaped like the QueryPlan it came from."""

    def __init__(self, payload):
        self.frontier_chunk = payload["frontier_chunk"]
        self.num_workers = payload["num_workers"]


class _Estimate:
    def __init__(self, payload):
        self.requested_rel_err = payload["requested_rel_err"]
        self.count = payload["count"]


def _via_service_batch(graph, options):
    """Two concurrent count requests coalescing into one batch."""
    service = MiningService(ServiceConfig(workers=2, max_wait_ms=20.0))
    service.register_graph("g", graph)
    request = {"verb": "count", "graph": "g", "pattern": "clique:3",
               "options": options}

    async def go():
        try:
            return await asyncio.gather(
                service.handle(request), service.handle(dict(request))
            )
        finally:
            await service.close()

    first, second = asyncio.run(go())
    assert first == second
    if not first["ok"]:
        assert first["error"]["code"] == "query_refused"
        assert first["error"]["estimate"]["explosive"]
        raise QueryRefusedError(first["error"]["message"])
    result = first["result"]
    value = result["count"]
    if "approx" in result:
        value = _Estimate({**result["approx"], "count": value})
    return value, _Echo(result["plan"])


# surface -> may it answer from the sampling tier, does it run a pool
SURFACES = {
    "count": (_via_count, True, False),
    "count_many": (_via_count_many, True, False),
    "match_batches": (_via_match_batches, False, False),
    "match_many": (_via_match_many, False, False),
    "match_batches_many": (_via_match_batches_many, False, False),
    "aggregate": (_via_aggregate, False, False),
    "aggregate_threads": (_via_aggregate_threads, False, True),
    "process_count_many": (_via_process_count_many, False, True),
    "parallel_match": (_via_parallel_match, False, True),
    "service_batch": (_via_service_batch, True, False),
}


def _requested_rel_err(value):
    if isinstance(value, (ApproxCount, _Estimate)):
        return value.requested_rel_err
    assert type(value) is int
    return None


def _as_int(value):
    return value.count if isinstance(value, _Estimate) else int(value)


each_surface = pytest.mark.parametrize("surface", sorted(SURFACES))
# surfaces that hand individual matches to a consumer
ENUMERATING = (
    "aggregate", "aggregate_threads", "match_batches", "match_batches_many",
    "match_many", "parallel_match",
)


class TestRoutingAcrossSurfaces:
    """refuse / downgrade / downgrade→approx / latency-budget routing is
    decided once, in ``MiningSession._stage``, so every surface that
    reaches the stage must show the same behaviour: refusals raise
    everywhere, downgrades pace (chunk, workers) everywhere, and the two
    escalations to the sampling tier engage exactly on the count-only
    surfaces while enumeration and the runtimes stay exact."""

    @pytest.fixture()
    def graph(self):
        return erdos_renyi(80, 0.2, seed=9)

    @pytest.fixture()
    def truth(self, graph):
        return MiningSession(graph).count(PATTERN, engine="reference")

    @each_surface
    def test_refuse_raises_before_any_work(self, surface, graph, monkeypatch):
        run, _, _ = SURFACES[surface]
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        with pytest.raises(QueryRefusedError, match="refused") as info:
            run(graph, {"guard": "refuse"})
        if surface != "service_batch":
            assert info.value.estimate.explosive
            assert info.value.partial == 0

    @each_surface
    def test_mild_explosion_only_paces(
        self, surface, graph, truth, monkeypatch
    ):
        # Past the threshold but inside DOWNGRADE_APPROX_FACTOR: pacing
        # (chunk tightening, worker cap), not estimation.
        run, _, pooled = SURFACES[surface]
        predicted = max(
            guards.estimate_cost(graph, p).predicted_partials
            for p in (PATTERN, generate_chain(3))
        )
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", predicted / 2.0)
        value, plan = run(graph, {"guard": "downgrade"})
        assert type(value) is int and value == truth
        assert plan.frontier_chunk == guards.DOWNGRADE_FRONTIER_CHUNK
        if pooled:
            assert plan.num_workers == guards.DOWNGRADE_MAX_WORKERS < WORKERS

    @each_surface
    def test_deep_explosion_escalates_count_only_surfaces(
        self, surface, graph, truth, monkeypatch
    ):
        # On this tiny frontier the estimator degenerates to the exact
        # census, so the value is still exact either way.
        run, samplable, _ = SURFACES[surface]
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        value, plan = run(graph, {"guard": "downgrade"})
        assert _as_int(value) == truth
        assert plan.frontier_chunk == guards.DOWNGRADE_FRONTIER_CHUNK
        expected = guards.DOWNGRADE_APPROX_REL_ERR if samplable else None
        assert _requested_rel_err(value) == expected

    @each_surface
    def test_latency_budget_routes_count_only_surfaces(
        self, surface, graph, truth
    ):
        run, samplable, _ = SURFACES[surface]
        value, _ = run(graph, {"latency_budget": 1e-9, "seed": 2})
        assert _as_int(value) == truth
        expected = planner.AUTO_APPROX_REL_ERR if samplable else None
        assert _requested_rel_err(value) == expected
        roomy, _ = run(graph, {"latency_budget": 1e9})
        assert type(roomy) is int and roomy == truth

    @pytest.mark.parametrize("surface", ENUMERATING)
    def test_explicit_approx_with_consumers_raises(self, surface, graph):
        # latency_budget is a hint an enumerating run ignores; an approx
        # the caller (or the session defaults) spelled out is a request
        # such a run cannot honour.
        with pytest.raises(MatchingError):
            SURFACES[surface][0](graph, {"approx": 0.05})

    @pytest.mark.parametrize("num_processes", [1, 2])
    def test_process_pool_rejects_default_approx_at_any_size(
        self, graph, num_processes
    ):
        # It counts exactly, so the outcome must not depend on whether
        # the pool was planned or capped to one.
        session = MiningSession(graph, approx=0.05)
        with pytest.raises(MatchingError, match="under processes"):
            process_count_many(session, [PATTERN], num_processes=num_processes)

    @pytest.mark.parametrize("symmetry_breaking", [True, False])
    def test_latency_budget_is_a_hint_mining_entry_points_ignore(
        self, graph, symmetry_breaking
    ):
        """Regression: a session whose defaults carry ``latency_budget``
        raised ``MatchingError`` from every multi-pattern enumerating
        verb, so ``labeled_motif_counts`` and ``fsm`` could not run."""
        g = with_random_labels(graph, 2, seed=1)
        flags = {"symmetry_breaking": symmetry_breaking}
        plain = MiningSession(g, **flags)
        hinted = MiningSession(g, latency_budget=1e-9, **flags)
        assert labeled_motif_counts(hinted, 3) == labeled_motif_counts(plain, 3)
        mined, expected = fsm(hinted, 2, threshold=2), fsm(plain, 2, threshold=2)
        assert mined.frequent_by_size == expected.frequent_by_size


class TestBudgetedVerbs:
    def test_reference_engine_trips_match_cap(self):
        g = erdos_renyi(60, 0.3, seed=4)
        session = MiningSession(g)
        full = session.count(generate_clique(3), engine="reference")
        assert full > 5
        result = session.count(
            generate_clique(3),
            engine="reference",
            budget=Budget(max_matches=5),
            on_budget="partial",
        )
        assert isinstance(result, PartialResult)
        assert result.truncated
        # The reference engine polls per start task, so the run stops at
        # the first poll after the cap — cooperative overshoot is
        # bounded by one task's matches, never the rest of the graph.
        assert 5 <= result < full
        assert "cap 5" in result.reason

    def test_multi_pattern_partial_flags_cut_and_unstarted_members(self):
        """Regression: multi-pattern verbs under on_budget="partial"
        returned plain ints, so a truncated census read as an exact one.
        Frontier-row caps trip deterministically: the label-pinned pair
        (small frontiers) finishes, the unpinned pair trips."""
        from repro.graph.generators import with_random_labels

        g = with_random_labels(erdos_renyi(90, 0.2, seed=3), 3, seed=3)
        session = MiningSession(g)
        pinned = []
        for _ in range(2):
            p = generate_chain(3)
            for u in range(3):
                p.set_label(u, 0)
            pinned.append(p)
        pinned[1].set_label(1, 1)
        patterns = pinned + [generate_chain(3), generate_clique(3)]
        pinned_rows = sum(
            len(session._frontier(session._frontier_key(session.plan_for(p))))
            for p in pinned
        )
        budget = Budget(max_frontier_rows=pinned_rows + 1)

        def run(**pins):
            seen = [[] for _ in patterns]
            totals = session.match_many(
                patterns, [rows.append for rows in seen],
                budget=budget, on_budget="partial", **pins,
            )
            return totals, seen

        totals, seen = run()
        exact = [session.count(p, engine="reference") for p in patterns]
        assert totals[:2] == exact[:2]
        assert [type(t) for t in totals] == [int, int, PartialResult, PartialResult]
        assert all(t.truncated and "frontier rows" in t.reason for t in totals[2:])
        assert [len(rows) for rows in seen] == [*exact[:2], 0, 0]
        # the per-pattern interpreter: the first two finish, the third
        # trips, and the fourth is flagged without being started just to
        # re-trip
        totals, seen = run(engine="reference")
        assert [type(t) for t in totals] == [int, int, PartialResult, PartialResult]
        assert totals[:2] == exact[:2] and seen[3] == []
        assert "frontier rows" in totals[3].reason
        with pytest.raises(BudgetExceededError):
            session.count_many(patterns, budget=budget)
        counts = session.count_many(patterns, budget=budget, on_budget="partial")
        assert [type(v) for v in counts.values()] == [type(t) for t in totals]

    def test_on_budget_raise_is_the_default(self):
        g = erdos_renyi(60, 0.3, seed=4)
        with pytest.raises(BudgetExceededError):
            MiningSession(g).count(
                generate_clique(3),
                engine="reference",
                budget=Budget(max_matches=1),
            )

    def test_batched_engine_trips_frontier_row_cap(self):
        g = erdos_renyi(200, 0.1, seed=5)
        result = MiningSession(g).count(
            generate_clique(3),
            engine="accel-batch",
            budget=Budget(max_frontier_rows=10),
            on_budget="partial",
        )
        assert isinstance(result, PartialResult)
        assert result.truncated
        assert "frontier rows" in result.reason

    def test_batched_match_cap_binds_the_whole_frontier(self):
        """Regression: the batched walk runs one engine per frontier
        slice, and each engine counted from zero, so a match cap only
        bound one slice's matches and a many-slice count ran to the end.
        Each slice here holds fewer matches than the cap."""
        g = erdos_renyi(200, 0.1, seed=5)
        session = MiningSession(g)
        full = session.count(generate_clique(3))
        assert full > 200
        result = session.count(
            generate_clique(3),
            engine="accel-batch",
            frontier_chunk=8,
            budget=Budget(max_matches=100),
            on_budget="partial",
        )
        assert isinstance(result, PartialResult) and result.truncated
        assert 100 <= result < full
        assert "cap 100" in result.reason

    def test_batched_match_cap_binds_each_member(self):
        """In a fused group the match cap binds each member's count over
        every slice, as the interpreter's per-pattern runs do."""
        g = erdos_renyi(200, 0.1, seed=5)
        session = MiningSession(g)
        patterns = [generate_chain(3), generate_clique(3)]
        full = [session.count(p) for p in patterns]
        cap = full[1] + 1
        assert full[0] > cap
        for pins in ({}, {"engine": "reference"}):
            totals = list(session.count_many(
                patterns, frontier_chunk=8, budget=Budget(max_matches=cap),
                on_budget="partial", **pins,
            ).values())
            assert all(isinstance(t, PartialResult) for t in totals)
            assert f"cap {cap}" in totals[0].reason
        with pytest.raises(BudgetExceededError):
            session.count_many(
                patterns, frontier_chunk=8, budget=Budget(max_matches=cap)
            )

    def test_deadline_on_power_law_census_via_batched_engine(self):
        """Acceptance: a 50ms deadline on a power-law census returns a
        truncated partial through the BATCHED engine.

        The engine claim is structural — the plan must dispatch this
        exact call shape to ``accel-batch`` — and the truncation is
        forced by an already-elapsed meter, never by racing wall-clock.
        """
        g = power_law(3000, gamma=2.0, d_min=6, seed=11)
        session = MiningSession(g)
        pattern = generate_clique(3)
        class ElapsedBudget(Budget):
            def meter(self):
                meter = super().meter()
                meter.deadline_at = time.perf_counter() - 1.0
                return meter

        budget = ElapsedBudget(deadline=0.05)
        opts = session.defaults.merged(
            {"engine": "auto", "budget": budget, "on_budget": "partial"}
        )
        # budgets do not demote dispatch
        assert planner.plan_query(session, pattern, opts).engine == "accel-batch"

        [result] = session._execute(session._stage([pattern], opts))
        assert isinstance(result, PartialResult)
        assert result.truncated
        assert "deadline" in result.reason
        # Sanity: the same call with a roomy deadline completes exactly.
        full = session.count(pattern, engine="auto")
        roomy = session.count(
            pattern,
            engine="auto",
            budget=Budget(deadline=3600.0),
            on_budget="partial",
        )
        assert roomy == full
        assert not getattr(roomy, "truncated", False)
