"""Tests for the first-class approximate mining tier (PR 10).

Covers the :mod:`repro.mining.sampling` estimators (accuracy, exact
degeneration, determinism, the statistical CI-coverage contract), the
vertical wiring — ``count(approx=...)`` / ``count_many`` fused sharing,
planner auto-routing under ``latency_budget`` (the ``guard="downgrade"``
escalation is pinned per surface in ``test_guards.py``) — plus the
planner-sized pools satellite and the service ``approx_count`` verb /
metrics gauges.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io

import pytest

from repro.core.engine import EngineStats
from repro.core.session import ExecOptions, MiningSession
from repro.errors import MatchingError
from repro.graph import barabasi_albert, erdos_renyi, from_edges, power_law
from repro.mining.sampling import (
    ApproxCount,
    approx_count,
    approx_count_many,
)
from repro.pattern import (
    Pattern,
    generate_chain,
    generate_clique,
    generate_star,
)
from repro.pattern.generators import generate_all_vertex_induced
from repro.runtime import planner


@pytest.fixture(scope="module")
def ba_graph():
    return barabasi_albert(800, 4, seed=3)


@pytest.fixture(scope="module")
def ba_session(ba_graph):
    return MiningSession(ba_graph)


# ----------------------------------------------------------------------
# The estimator itself
# ----------------------------------------------------------------------


class TestApproxCount:
    def test_result_shape(self, ba_session):
        exact = ba_session.count(generate_clique(3))
        r = ba_session.count(generate_clique(3), approx=0.05, seed=1)
        assert isinstance(r, ApproxCount)
        assert r.ci_low <= r.estimate <= r.ci_high
        assert r.samples > 0
        assert r.frontier_size == 800
        assert int(r) == round(r.estimate)
        assert float(r) == r.estimate
        assert r.within(exact, slack=3.0)
        payload = r.as_dict()
        assert {"estimate", "stderr", "ci_low", "ci_high",
                "rel_err_achieved", "samples", "early_stop"} <= set(payload)

    def test_deterministic_with_seed(self, ba_session):
        a = ba_session.count(generate_clique(3), approx=0.05, seed=42)
        b = ba_session.count(generate_clique(3), approx=0.05, seed=42)
        assert a == b

    def test_functional_entry_point(self, ba_graph):
        r = approx_count(ba_graph, generate_clique(3), rel_err=0.05, seed=1)
        via_session = MiningSession(ba_graph).count(
            generate_clique(3), approx=0.05, seed=1
        )
        assert r.estimate == via_session.estimate

    def test_exact_fallback_when_budget_covers_frontier(self, ba_session):
        exact = ba_session.count(generate_clique(3))
        r = ba_session.count(
            generate_clique(3), approx=0.05, seed=7, max_samples=800
        )
        assert r.exact
        assert r.estimate == exact
        assert r.stderr == 0.0
        assert r.early_stop == "exhausted-frontier"

    def test_budget_cap_is_honored(self, ba_session):
        r = ba_session.count(
            generate_clique(3), approx=0.001, seed=7, max_samples=300
        )
        assert r.samples <= 300
        assert not r.exact

    def test_empty_frontier(self):
        session = MiningSession(from_edges([], num_vertices=5))
        r = session.count(generate_clique(3), approx=0.1, seed=0)
        assert r.estimate == 0.0
        assert r.early_stop in ("empty-frontier", "exhausted-frontier")

    def test_invalid_knobs_rejected(self, ba_session):
        with pytest.raises(ValueError):
            ba_session.count(generate_clique(3), approx=1.5)
        with pytest.raises(ValueError):
            ba_session.count(generate_clique(3), approx=0.05, confidence=1.0)
        with pytest.raises(ValueError):
            ba_session.count(generate_clique(3), approx=0.05, max_samples=0)
        with pytest.raises(ValueError):
            ba_session.count(generate_clique(3), latency_budget=-1.0)
        # Integer knobs are integers: a float or a bool used to slip
        # through (or die as a raw TypeError inside the sampling tier).
        for knob in (
            {"max_samples": 200.0}, {"max_samples": True},
            {"frontier_chunk": 0.5}, {"frontier_chunk": True},
            {"seed": 2.5}, {"seed": False},
        ):
            (name,) = knob
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ba_session.count(generate_clique(3), approx=0.05, **knob)

    def test_count_only_contract(self, ba_session):
        with pytest.raises(MatchingError):
            ba_session.match(
                generate_clique(3), lambda m: None, approx=0.05
            )
        with pytest.raises(MatchingError):
            ba_session.count(
                generate_clique(3),
                approx=0.05,
                budget=__import__(
                    "repro.core.callbacks", fromlist=["Budget"]
                ).Budget(deadline=10.0),
            )
        with pytest.raises(MatchingError):
            ba_session.count_many(
                [generate_clique(3)], num_processes=2, approx=0.05
            )


class TestCoverage:
    """The statistical contract: empirical CI coverage >= ~nominal."""

    def test_ci_coverage_at_least_nominal(self):
        graph = erdos_renyi(400, 0.05, seed=9)
        session = MiningSession(graph)
        pattern = generate_clique(3)
        exact = session.count(pattern)
        assert exact > 0
        hits = 0
        reps = 40
        for seed in range(reps):
            r = session.count(
                pattern, approx=0.05, seed=seed, max_samples=200
            )
            assert not r.exact  # the cap must actually force sampling
            if r.ci_low <= exact <= r.ci_high:
                hits += 1
        # 95% nominal; >= 90% empirical over seeded reps (satellite 4).
        assert hits / reps >= 0.90

    def test_estimates_are_unbiased_ish(self):
        graph = erdos_renyi(300, 0.06, seed=2)
        session = MiningSession(graph)
        pattern = generate_clique(3)
        exact = session.count(pattern)
        estimates = [
            session.count(
                pattern, approx=0.05, seed=s, max_samples=150
            ).estimate
            for s in range(30)
        ]
        mean = sum(estimates) / len(estimates)
        assert abs(mean - exact) / exact < 0.10


class TestMultiPattern:
    def test_count_many_estimates_every_pattern(self, ba_session):
        patterns = [generate_clique(3), generate_chain(3), generate_star(3)]
        exact = ba_session.count_many(patterns)
        approx = ba_session.count_many(patterns, approx=0.05, seed=5)
        assert set(approx) == set(patterns)
        for p in patterns:
            r = approx[p]
            assert isinstance(r, ApproxCount)
            assert abs(r.estimate - exact[p]) / max(exact[p], 1) < 0.25

    def test_census_tier_shares_sampled_walks(self, ba_session):
        motifs = list(generate_all_vertex_induced(4))
        exact = ba_session.count_many(motifs, edge_induced=False)
        approx = ba_session.count_many(
            motifs, edge_induced=False, approx=0.05, seed=11
        )
        for m in motifs:
            r = approx[m]
            if r.exact:
                assert r.estimate == exact[m]
            else:
                assert abs(r.estimate - exact[m]) / max(exact[m], 1) < 0.25

    def test_functional_many(self, ba_graph):
        patterns = [generate_clique(3), generate_star(3)]
        results = approx_count_many(
            ba_graph, patterns, rel_err=0.05, seed=3
        )
        assert set(results) == set(patterns)
        assert all(isinstance(r, ApproxCount) for r in results.values())

    def test_round_starts_is_the_functional_spellings_one_extra_knob(
        self, ba_session
    ):
        # bench_approx.py sets it; at the default the spelling is the verb.
        patterns = [generate_clique(3), generate_star(3)]
        knobs = dict(max_samples=600, seed=3)
        assert approx_count_many(
            ba_session, patterns, rel_err=0.05, **knobs
        ) == ba_session.count_many(patterns, approx=0.05, **knobs)
        hub = 300  # half the 600-start budget on this 800-start frontier
        for r in approx_count_many(
            ba_session, patterns, rel_err=1e-6, round_starts=16, **knobs
        ).values():
            assert not r.exact and r.samples == hub + 16 * r.rounds
        # same contract as the verb: an estimate has no matches to observe
        with pytest.raises(MatchingError, match="count-only"):
            approx_count_many(ba_session, patterns, stats=EngineStats())


class TestEstimatePin:
    """Estimates are byte-identical across engine rewrites.

    Every sampled round is an exact executor pass over a draw of start
    vertices, so an engine change that keeps per-start counts exact
    (tail counting included) must reproduce these numbers bit for bit:
    ``(estimate, ci_low, ci_high, samples, rounds)``, hard-coded.
    """

    @pytest.fixture(scope="class")
    def pl_graph(self):
        return power_law(3000, gamma=2.3, seed=5)

    CENSUS = {
        1: [
            (69631671.02083333, 69631492.71291573, 69631849.32875092, 1792, 6),
            (10117766.78125, 10117555.577733804, 10117977.984766196, 1792, 6),
            (2935531.5729166665, 2935525.3093614276, 2935537.8364719055,
             1792, 6),
            (33344.145833333336, 33331.61872285504, 33356.67294381163, 1792,
             6),
        ],
        2: [
            (69631611.84375, 69631015.19953975, 69632208.48796025, 1536, 4),
            (10117774.5, 10116803.531462805, 10118745.468537195, 1536, 4),
            (2935567.59375, 2935487.2102100076, 2935647.9772899924, 1536, 4),
            (33342.859375, 33332.24331090402, 33353.47543909598, 1536, 4),
        ],
    }

    SINGLE = [
        (generate_star(4),
         (72852835.4375, 72852567.43006112, 72853103.44493888, 1536, 4)),
        (generate_chain(4),
         (16979156.5, 16978754.395405028, 16979558.604594972, 1536, 4)),
    ]

    @staticmethod
    def _pinned(r):
        assert not r.exact
        return (r.estimate, r.ci_low, r.ci_high, r.samples, r.rounds)

    @pytest.mark.parametrize("seed", sorted(CENSUS))
    def test_census_estimates(self, pl_graph, seed):
        motifs = list(generate_all_vertex_induced(4))[:4]
        results = MiningSession(pl_graph).count_many(
            motifs, edge_induced=False, approx=0.05, seed=seed
        )
        assert [self._pinned(results[m]) for m in motifs] == self.CENSUS[seed]

    @pytest.mark.parametrize("index", range(len(SINGLE)))
    def test_single_estimates(self, pl_graph, index):
        pattern, pinned = self.SINGLE[index]
        r = MiningSession(pl_graph).count(pattern, approx=0.05, seed=7)
        assert self._pinned(r) == pinned


# ----------------------------------------------------------------------
# Vertical wiring: planner routing, guard escalation, exact bit-identity
# ----------------------------------------------------------------------


class TestPlannerRouting:
    def test_latency_budget_routes_to_approx(self, ba_session):
        r = ba_session.count(
            generate_clique(4), latency_budget=1e-9, seed=2
        )
        assert isinstance(r, ApproxCount)
        qp = ba_session.last_query_plan
        assert qp is not None and qp.use_approx
        assert qp.approx_rel_err == planner.AUTO_APPROX_REL_ERR
        assert f"approx={planner.AUTO_APPROX_REL_ERR:g}" in qp.describe()

    def test_generous_budget_stays_exact(self, ba_session):
        plain = ba_session.count(generate_clique(4))
        r = ba_session.count(generate_clique(4), latency_budget=1e9)
        assert isinstance(r, int) and not isinstance(r, ApproxCount)
        assert r == plain
        assert not ba_session.last_query_plan.use_approx

    def test_exact_results_bit_identical_without_approx(self, ba_session):
        # The acceptance pin: adding the tier must not perturb exact
        # counting — planned and interpreter runs agree exactly with
        # each other and with a fresh session.
        p = generate_clique(3)
        oracle = ba_session.count(p, engine="reference")
        planned = ba_session.count(p)
        fresh = MiningSession(ba_session.graph).count(p)
        assert oracle == planned == fresh
        assert type(planned) is int

    def test_caller_pinned_approx_survives_planning(self, ba_session):
        r = ba_session.count(generate_clique(3), approx=0.1, seed=1)
        assert isinstance(r, ApproxCount)
        assert r.requested_rel_err == 0.1

    def test_match_rejects_latency_budget_routing(self, ba_session):
        # Only count-only runs may be auto-routed; match with a callback
        # under the same budget must stay exact, not estimate.
        seen = []
        total = ba_session.match(
            generate_clique(3), seen.append, latency_budget=1e-9
        )
        assert type(total) is int
        assert len(seen) == total


# ----------------------------------------------------------------------
# Satellite: planner-sized pools (num_workers=None)
# ----------------------------------------------------------------------


class TestPoolSizing:
    def test_parallel_match_plans_pool_size(self, ba_session):
        from repro.runtime.parallel import parallel_match

        exact = ba_session.count(generate_clique(3))
        result = parallel_match(
            ba_session, generate_clique(3), num_threads=None
        )
        assert result.matches == exact
        qp = planner.plan_query(
            ba_session, generate_clique(3), num_workers=None
        )
        assert result.num_threads == qp.num_workers

    def test_process_count_accepts_none(self):
        from repro.runtime.parallel import process_count

        graph = erdos_renyi(80, 0.1, seed=1)
        session = MiningSession(graph)
        exact = session.count(generate_clique(3))
        # Tiny workload: the planner sizes the pool down to 1, which
        # takes the fast in-process path.
        assert process_count(
            session, generate_clique(3), num_processes=None
        ) == exact


# ----------------------------------------------------------------------
# Service: approx_count verb, envelope fields, metrics gauges
# ----------------------------------------------------------------------


class TestServiceApprox:
    @pytest.fixture
    def service(self, ba_graph):
        from repro.service import MiningService, ServiceConfig

        service = MiningService(ServiceConfig(workers=1, max_wait_ms=1.0))
        service.register_graph("g", ba_graph)
        yield service
        asyncio.run(service.close())

    def test_approx_count_verb_envelope(self, service, ba_session):
        exact = ba_session.count(generate_clique(3))
        response = asyncio.run(service.handle({
            "verb": "approx_count",
            "graph": "g",
            "pattern": "clique:3",
            "rel_err": 0.05,
            "seed": 7,
        }))
        assert response["ok"], response
        result = response["result"]
        assert result["count"] == round(result["estimate"])
        assert result["ci_low"] <= result["estimate"] <= result["ci_high"]
        assert "rel_err_achieved" in result
        assert "early_stop" in result
        assert result["ci_low"] - 3 * result["stderr"] <= exact
        assert exact <= result["ci_high"] + 3 * result["stderr"]
        stats = asyncio.run(service.handle({"verb": "stats"}))
        approx_gauges = stats["result"]["approx"]
        assert approx_gauges["engagements"] == 1
        assert approx_gauges["planner_downgrades"] == 0

    def test_estimator_knobs_rejected_in_options(self, service):
        response = asyncio.run(service.handle({
            "verb": "approx_count",
            "graph": "g",
            "pattern": "clique:3",
            "options": {"approx": 0.05},
        }))
        assert not response["ok"]
        assert response["error"]["code"] == "invalid_request"

    def test_count_verb_carries_approx_envelope(self, service):
        response = asyncio.run(service.handle({
            "verb": "count",
            "graph": "g",
            "pattern": "clique:3",
            "options": {"approx": 0.05, "seed": 3},
        }))
        assert response["ok"], response
        result = response["result"]
        assert "approx" in result
        assert result["count"] == round(result["approx"]["estimate"])

    def test_latency_budget_counts_as_planner_downgrade(self, service):
        response = asyncio.run(service.handle({
            "verb": "count",
            "graph": "g",
            "pattern": "clique:4",
            "options": {"latency_budget": 1e-9, "seed": 1},
        }))
        assert response["ok"], response
        assert "approx" in response["result"]
        stats = asyncio.run(service.handle({"verb": "stats"}))
        approx_gauges = stats["result"]["approx"]
        assert approx_gauges["engagements"] == 1
        assert approx_gauges["planner_downgrades"] == 1


# ----------------------------------------------------------------------
# CLI: repro-mine count --approx / repro-mine approx
# ----------------------------------------------------------------------


class TestCLI:
    def run_cli(self, argv):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(argv)
        out = io.StringIO()
        code = args.func(args, out)
        return code, out.getvalue()

    DATASET = ["--dataset", "mico", "--scale", "0.05"]

    def test_count_approx_flag(self):
        code, output = self.run_cli(
            ["count", *self.DATASET, "--pattern", "clique:3",
             "--approx", "0.05", "--sample-seed", "1"]
        )
        assert code == 0
        assert "estimate:" in output
        assert "CI [" in output

    def test_approx_subcommand(self):
        code, output = self.run_cli(
            ["approx", *self.DATASET, "--pattern", "clique:3",
             "--rel-err", "0.1", "--sample-seed", "2"]
        )
        assert code == 0
        assert "estimate:" in output
        assert "stop:" in output

    def test_approx_conflicts_with_processes(self):
        with pytest.raises(SystemExit):
            self.run_cli(
                ["count", *self.DATASET, "--pattern", "clique:3",
                 "--approx", "0.05", "--processes", "2"]
            )


# ----------------------------------------------------------------------
# ExecOptions plumbing details
# ----------------------------------------------------------------------


class TestOptionPlumbing:
    def test_new_fields_default_off(self):
        opts = ExecOptions()
        assert opts.approx is None
        assert opts.confidence == 0.95
        assert opts.max_samples is None
        assert opts.latency_budget is None
        assert opts.seed is None

    def test_inner_runs_strip_sampling_knobs(self):
        from repro.mining.sampling import _inner_opts

        opts = ExecOptions(
            approx=0.05, max_samples=10, latency_budget=1.0, seed=3,
            guard="downgrade", engine="accel-batch",
        )
        inner = _inner_opts(opts)
        assert inner.approx is None
        assert inner.max_samples is None
        assert inner.latency_budget is None
        assert inner.guard == "off"
        assert inner.engine == "accel-batch"  # the engine staged once

    def test_plan_query_approx_fields_serialize(self, ba_session):
        opts = dataclasses.replace(
            ba_session.options(), latency_budget=1e-9
        )
        qp = planner.plan_query(ba_session, generate_clique(3), opts)
        payload = qp.as_dict()
        assert payload["use_approx"] is True
        assert payload["approx_rel_err"] == planner.AUTO_APPROX_REL_ERR
