"""Tests for the async mining service tier (repro.service).

Covers the session registry's two eviction axes (and that eviction
really releases ``.rgx`` mmap handles), the batching queue's fused
execution against sequential single-request ground truth, failure
isolation inside coalesced batches, the verb dispatch surface's
response shapes, and the metrics snapshot the acceptance gauge reads.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.session import MiningSession
from repro.graph import barabasi_albert, erdos_renyi, with_random_labels
from repro.graph.binary_io import save_mmap
from repro.pattern import generate_chain, generate_clique, generate_star
from repro.runtime import guards
from repro.runtime.pool import QueryPool
from repro.service import (
    BatchingQueue,
    MiningService,
    QueryJob,
    ServiceConfig,
    ServiceMetrics,
    SessionRegistry,
)
from repro.service.metrics import LatencyHistogram


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def graph():
    return barabasi_albert(150, 3, seed=7)


@pytest.fixture
def rgx_factory(tmp_path):
    """Write distinct small ``.rgx`` stores on demand; returns paths."""

    def make(name: str, seed: int = 0):
        path = tmp_path / f"{name}.rgx"
        save_mmap(erdos_renyi(40, 0.15, seed=seed), path)
        return str(path)

    return make


# ----------------------------------------------------------------------
# QueryPool
# ----------------------------------------------------------------------


class TestQueryPool:
    def test_run_executes_on_worker_thread(self):
        import threading

        async def go():
            with QueryPool(workers=1) as pool:
                name = await pool.run(lambda: threading.current_thread().name)
            return name

        assert run(go()).startswith("repro-query")

    def test_run_propagates_exceptions(self):
        async def go():
            with QueryPool(workers=1) as pool:
                with pytest.raises(ValueError, match="boom"):
                    await pool.run(self._raise)

        run(go())

    @staticmethod
    def _raise():
        raise ValueError("boom")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            QueryPool(workers=0)


# ----------------------------------------------------------------------
# SessionRegistry
# ----------------------------------------------------------------------


class TestSessionRegistry:
    def test_path_hit_returns_same_session(self, rgx_factory):
        registry = SessionRegistry()
        path = rgx_factory("a")
        first = registry.get(path)
        second = registry.get(path)
        assert first is second
        stats = registry.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        registry.clear()

    def test_unknown_key_raises(self, tmp_path):
        registry = SessionRegistry()
        with pytest.raises(FileNotFoundError, match="unknown graph"):
            registry.get(str(tmp_path / "nope.rgx"))

    def test_lru_displacement_releases_mmap_store(self, rgx_factory):
        registry = SessionRegistry(max_sessions=2)
        first = registry.get(rgx_factory("a", seed=1))
        store = first.graph.backing_store
        assert store is not None and not store.closed
        registry.get(rgx_factory("b", seed=2))
        registry.get(rgx_factory("c", seed=3))  # displaces "a"
        assert len(registry) == 2
        assert store.closed  # mmap sections (and their fds) released
        assert registry.stats()["evictions_lru"] == 1
        registry.clear()

    def test_lru_order_follows_recency_not_insertion(self, rgx_factory):
        registry = SessionRegistry(max_sessions=2)
        path_a = rgx_factory("a", seed=1)
        registry.get(path_a)
        second = registry.get(rgx_factory("b", seed=2))
        registry.get(path_a)  # touch "a": now "b" is the LRU
        registry.get(rgx_factory("c", seed=3))
        assert second.graph.backing_store.closed
        assert path_a in registry.keys()[0]
        registry.clear()

    def test_ttl_expiry_releases_store(self, rgx_factory):
        now = [0.0]
        registry = SessionRegistry(ttl_seconds=10.0, clock=lambda: now[0])
        session = registry.get(rgx_factory("a"))
        store = session.graph.backing_store
        now[0] = 5.0
        registry.get(rgx_factory("a"))  # refreshes last_used
        now[0] = 14.0
        assert not store.closed  # idle 9s < ttl
        registry.get(rgx_factory("b", seed=9))  # lazy sweep runs here
        assert len(registry) == 2
        now[0] = 16.0  # "a" idle 11s > ttl; "b" idle 2s stays
        registry.get(rgx_factory("b", seed=9))
        assert store.closed
        assert registry.stats()["evictions_ttl"] == 1
        registry.clear()

    def test_registered_graph_eviction_keeps_caller_store(self, rgx_factory):
        registry = SessionRegistry(max_sessions=1)
        owned = MiningSession(rgx_factory("a"))
        registry.register("mem", owned)
        registry.get(rgx_factory("b", seed=2))  # displaces "mem"
        assert "mem" not in registry
        # Caller-owned store survives eviction of a registered session.
        assert not owned.graph.backing_store.closed
        owned.close(release_store=True)
        registry.clear()

    def test_reregister_installs_fresh_session(self, graph):
        registry = SessionRegistry()
        first = registry.register("g", graph)
        assert first.count(generate_clique(3)) >= 0  # warm the plan cache
        second = registry.register("g", graph)
        assert second is not first
        assert registry.get("g") is second
        assert registry.stats()["evictions_explicit"] == 1
        registry.clear()

    def test_register_rejects_other_types(self):
        registry = SessionRegistry()
        with pytest.raises(TypeError):
            registry.register("g", [1, 2, 3])

    def test_resolve_key_prefers_registered_name(self, graph):
        registry = SessionRegistry()
        registry.register("g", graph)
        assert registry.resolve_key("g") == "g"
        resolved = registry.resolve_key("some/relative/path.rgx")
        assert resolved.startswith("/") or resolved[1:3] == ":\\"
        registry.clear()

    def test_evict_reports_residency(self, graph):
        registry = SessionRegistry()
        registry.register("g", graph)
        assert registry.evict("g") is True
        assert registry.evict("g") is False


# ----------------------------------------------------------------------
# Session close
# ----------------------------------------------------------------------


class TestSessionClose:
    def test_close_clears_graph_session_cache(self, graph):
        session = MiningSession.for_graph(graph)
        assert MiningSession.for_graph(graph) is session
        session.close()
        assert MiningSession.for_graph(graph) is not session

    def test_close_without_release_keeps_store_open(self, rgx_factory):
        session = MiningSession(rgx_factory("a"))
        store = session.graph.backing_store
        session.close()
        assert not store.closed
        session.close(release_store=True)
        assert store.closed
        session.close(release_store=True)  # idempotent


# ----------------------------------------------------------------------
# Batching: fused results must equal sequential single-request results
# ----------------------------------------------------------------------


SPECS = ["clique:3", "star:3", "chain:3", "chain:4", "clique:3", "star:4"]
PATTERNS = {
    "clique:3": generate_clique(3),
    "star:3": generate_star(3),
    "star:4": generate_star(4),
    "chain:3": generate_chain(3),
    "chain:4": generate_chain(4),
}


class TestBatchingCorrectness:
    def test_fused_counts_match_sequential(self, graph):
        service = MiningService(ServiceConfig(workers=2, max_wait_ms=20.0))
        service.register_graph("g", graph)
        truth = MiningSession(graph)

        async def go():
            requests = [
                {"verb": "count", "graph": "g", "pattern": spec}
                for spec in SPECS
            ]
            return await asyncio.gather(
                *[service.handle(r) for r in requests]
            )

        responses = run(self._with_close(service, go))
        for spec, response in zip(SPECS, responses):
            assert response["ok"], response
            assert response["result"]["count"] == truth.count(PATTERNS[spec])
        snapshot = service.metrics.snapshot()
        assert snapshot["batching"]["fused_requests"] >= len(SPECS)
        # clique:3 appears twice: the duplicate rides its sibling's walk.
        assert snapshot["batching"]["deduped_requests"] >= 1
        assert snapshot["batching"]["fusion_batch_rate"] > 0.0

    def test_match_rows_agree_with_sequential(self, graph):
        service = MiningService(ServiceConfig(workers=2, max_wait_ms=20.0))
        service.register_graph("g", graph)
        truth = MiningSession(graph)

        async def go():
            requests = [
                {"verb": "match", "graph": "g", "pattern": "clique:3",
                 "limit": 10_000},
                {"verb": "count", "graph": "g", "pattern": "star:3"},
                {"verb": "match", "graph": "g", "pattern": "clique:3",
                 "limit": 2},
            ]
            return await asyncio.gather(
                *[service.handle(r) for r in requests]
            )

        full, star, capped = run(self._with_close(service, go))
        expected_rows: list[tuple[int, ...]] = []
        expected = truth.match(
            generate_clique(3), lambda m: expected_rows.append(tuple(m.mapping))
        )
        assert full["result"]["count"] == expected
        assert sorted(map(tuple, full["result"]["matches"])) == sorted(
            expected_rows
        )
        assert star["result"]["count"] == truth.count(generate_star(3))
        assert capped["result"]["count"] == expected  # count stays exact
        assert capped["result"]["returned"] == 2

    def test_batching_disabled_still_correct(self, graph):
        service = MiningService(ServiceConfig(workers=2, batching=False))
        service.register_graph("g", graph)
        truth = MiningSession(graph)

        async def go():
            requests = [
                {"verb": "count", "graph": "g", "pattern": spec}
                for spec in SPECS
            ]
            return await asyncio.gather(
                *[service.handle(r) for r in requests]
            )

        responses = run(self._with_close(service, go))
        for spec, response in zip(SPECS, responses):
            assert response["result"]["count"] == truth.count(PATTERNS[spec])
        snapshot = service.metrics.snapshot()
        assert snapshot["batching"]["batched_requests"] == 0
        assert snapshot["batching"]["solo_requests"] == len(SPECS)

    def test_distinct_options_never_share_a_bucket(self, graph):
        service = MiningService(ServiceConfig(workers=2, max_wait_ms=20.0))
        service.register_graph("g", graph)
        truth = MiningSession(graph)

        async def go():
            requests = [
                {"verb": "count", "graph": "g", "pattern": "chain:3",
                 "options": {"edge_induced": True}},
                {"verb": "count", "graph": "g", "pattern": "chain:3",
                 "options": {"edge_induced": False}},
            ]
            return await asyncio.gather(
                *[service.handle(r) for r in requests]
            )

        edge, vertex = run(self._with_close(service, go))
        assert edge["result"]["count"] == truth.count(
            generate_chain(3), edge_induced=True
        )
        assert vertex["result"]["count"] == truth.count(
            generate_chain(3), edge_induced=False
        )
        sizes = service.metrics.snapshot()["batching"]["batch_sizes"]
        assert sizes.get("1", 0) == 2  # two buckets, no false fusion

    @staticmethod
    async def _with_close(service, body):
        try:
            return await body()
        finally:
            await service.close()


# ----------------------------------------------------------------------
# Failure isolation inside a coalesced batch
# ----------------------------------------------------------------------


class TestBatchFailureIsolation:
    def test_guard_refusal_does_not_poison_siblings(self, monkeypatch):
        """One refused member -> structured error; siblings still answer."""
        # Dense enough that second-level growth > 1, so the probe's
        # prediction scales with pattern width and a threshold can sit
        # between a 3-vertex and a 5-vertex pattern deterministically.
        dense = erdos_renyi(200, 0.1, seed=1)
        session = MiningSession(dense)
        small = guards.estimate_cost(session, generate_chain(3))
        big = guards.estimate_cost(session, generate_star(5))
        assert big.predicted_partials > small.predicted_partials
        threshold = (small.predicted_partials + big.predicted_partials) / 2
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", threshold)

        service = MiningService(ServiceConfig(workers=2, max_wait_ms=20.0))
        service.register_graph("g", dense)

        async def go():
            requests = [
                {"verb": "count", "graph": "g", "pattern": "chain:3",
                 "options": {"guard": "refuse"}},
                {"verb": "count", "graph": "g", "pattern": "star:5",
                 "options": {"guard": "refuse"}},
                {"verb": "count", "graph": "g", "pattern": "clique:3",
                 "options": {"guard": "refuse"}},
            ]
            return await asyncio.gather(
                *[service.handle(r) for r in requests]
            )

        ok_chain, refused, ok_clique = run(
            TestBatchingCorrectness._with_close(service, go)
        )
        assert ok_chain["ok"] and ok_clique["ok"]
        assert ok_chain["result"]["count"] == session.count(generate_chain(3))
        assert ok_clique["result"]["count"] == session.count(
            generate_clique(3)
        )
        assert not refused["ok"]
        assert refused["error"]["code"] == "query_refused"
        assert refused["error"]["estimate"]["predicted_partials"] > threshold
        assert refused["error"]["partial"]["truncated"] is True

    def test_budgeted_request_runs_solo_and_fails_alone(self, graph):
        service = MiningService(ServiceConfig(workers=2, max_wait_ms=20.0))
        service.register_graph("g", graph)
        truth = MiningSession(graph)

        async def go():
            requests = [
                {"verb": "count", "graph": "g", "pattern": "clique:3"},
                # A deadline this small trips at the first cooperative
                # poll, well before the walk completes.
                {"verb": "count", "graph": "g", "pattern": "star:4",
                 "timeout_ms": 1e-6},
                {"verb": "count", "graph": "g", "pattern": "chain:3"},
            ]
            return await asyncio.gather(
                *[service.handle(r) for r in requests]
            )

        ok_a, timed_out, ok_b = run(
            TestBatchingCorrectness._with_close(service, go)
        )
        assert ok_a["result"]["count"] == truth.count(generate_clique(3))
        assert ok_b["result"]["count"] == truth.count(generate_chain(3))
        assert not timed_out["ok"]
        assert timed_out["error"]["code"] == "budget_exceeded"
        assert timed_out["error"]["partial"]["truncated"] is True
        # The budgeted request never joined a batch.
        assert service.metrics.snapshot()["batching"]["solo_requests"] == 1

    def test_fused_failure_falls_back_per_job(self, graph, monkeypatch):
        """If the fused call itself dies, every member re-runs alone."""
        session = MiningSession(graph)
        metrics = ServiceMetrics()

        def sabotaged_match_many(self, patterns, callbacks=None, **options):
            raise RuntimeError("fused walk exploded")

        monkeypatch.setattr(
            MiningSession, "match_many", sabotaged_match_many
        )
        truth_clique = session.count(generate_clique(3))
        truth_star = session.count(generate_star(3))

        async def go():
            with QueryPool(workers=1) as pool:
                queue = BatchingQueue(
                    pool, metrics, max_wait_ms=60_000.0, max_batch=2
                )
                results = await asyncio.gather(
                    queue.submit(
                        "g", session, QueryJob("count", generate_clique(3))
                    ),
                    queue.submit(
                        "g", session, QueryJob("count", generate_star(3))
                    ),
                )
                await queue.close()
                return results

        clique, star = run(go())
        assert clique.count == truth_clique
        assert star.count == truth_star


# ----------------------------------------------------------------------
# Dispatch surface / response shapes
# ----------------------------------------------------------------------


class TestDispatch:
    @pytest.fixture
    def service(self, graph):
        service = MiningService(ServiceConfig(workers=1, max_wait_ms=1.0))
        service.register_graph("g", graph)
        yield service
        run(service.close())

    def test_unknown_verb(self, service):
        response = run(service.handle({"verb": "shred", "graph": "g"}))
        assert not response["ok"]
        assert response["error"]["code"] == "invalid_request"
        assert "shred" in response["error"]["message"]

    def test_non_dict_payload(self, service):
        response = run(service.handle([1, 2]))
        assert response["error"]["code"] == "invalid_request"

    def test_unknown_option_rejected(self, service):
        response = run(
            service.handle(
                {"verb": "count", "graph": "g", "pattern": "clique:3",
                 "options": {"num_processes": 4}}
            )
        )
        assert response["error"]["code"] == "invalid_request"
        assert "num_processes" in response["error"]["message"]

    def test_option_type_checked(self, service):
        response = run(
            service.handle(
                {"verb": "count", "graph": "g", "pattern": "clique:3",
                 "options": {"frontier_chunk": True}}
            )
        )
        assert response["error"]["code"] == "invalid_request"

    BAD_OPTIONS = [
        {"guard": "bogus"},
        {"schedule": "bogus"},
        {"on_budget": "bogus"},
        {"engine": "accel"},
        {"approx": 7},
        {"confidence": 2},
        {"max_samples": -1},
        {"latency_budget": -1.0},
        {"chunk_hint": 0},
        {"frontier_chunk": 0},
    ]

    @pytest.mark.parametrize(
        "verb", ["count", "match", "exists", "approx_count", "motifs"]
    )
    @pytest.mark.parametrize("options", BAD_OPTIONS, ids=str)
    def test_bad_option_value_is_400_on_every_verb(
        self, service, verb, options
    ):
        """Option values are checked once, where options are resolved,
        so a typo can neither run unguarded (``guard`` used to be
        silently accepted on the batched path) nor surface as a 500 from
        the worker pool.  The deleted placement knobs (``schedule``,
        ``chunk_hint``) are unknown names now, refused the same way."""
        response = run(
            service.handle(
                {"verb": verb, "graph": "g", "pattern": "clique:3",
                 "size": 3, "options": options}
            )
        )
        assert not response["ok"]
        assert response["error"]["code"] == "invalid_request"
        assert response["error"]["status"] == 400
        (name,) = options
        assert name in response["error"]["message"]

    @pytest.mark.parametrize(
        "field", [{"rel_err": 7}, {"confidence": 2}, {"max_samples": -1}]
    )
    def test_bad_estimator_field_is_400(self, service, field):
        response = run(
            service.handle(
                {"verb": "approx_count", "graph": "g",
                 "pattern": "clique:3", **field}
            )
        )
        assert response["error"]["code"] == "invalid_request"
        assert response["error"]["status"] == 400

    def test_removed_accel_engine_names_the_choices(self, service):
        response = run(
            service.handle(
                {"verb": "count", "graph": "g", "pattern": "clique:3",
                 "options": {"engine": "accel"}}
            )
        )
        assert "accel-batch" in response["error"]["message"]

    @pytest.mark.parametrize(
        "verb", ["count", "match", "exists", "approx_count"]
    )
    def test_fused_engine_is_a_bad_option_on_single_pattern_verbs(
        self, service, verb
    ):
        """``fused`` is no engine: the verbs answer 400, not the
        session's ValueError as a 500."""
        response = run(
            service.handle(
                {"verb": verb, "graph": "g", "pattern": "clique:3",
                 "options": {"engine": "fused"}}
            )
        )
        assert response["error"]["code"] == "invalid_request"
        assert response["error"]["status"] == 400
        assert "fused" not in response["error"]["message"].split("got")[0]

    def test_fused_engine_rejected_by_motifs(self, service):
        # the multi-pattern verb takes the one engine vocabulary too
        response = run(
            service.handle(
                {"verb": "motifs", "graph": "g", "size": 3,
                 "options": {"engine": "fused"}}
            )
        )
        assert response["error"]["code"] == "invalid_request"
        assert response["error"]["status"] == 400
        assert "'accel-batch'" in response["error"]["message"]

    def test_bad_budget_field(self, service):
        response = run(
            service.handle(
                {"verb": "count", "graph": "g", "pattern": "clique:3",
                 "budget": {"max_seconds": 1}}
            )
        )
        assert response["error"]["code"] == "invalid_request"

    def test_bad_pattern_spec(self, service):
        response = run(
            service.handle(
                {"verb": "count", "graph": "g", "pattern": "hexagon"}
            )
        )
        assert response["error"]["code"] == "invalid_pattern"

    def test_unknown_graph_maps_to_404(self, service):
        response = run(
            service.handle(
                {"verb": "count", "graph": "no/such.rgx",
                 "pattern": "clique:3"}
            )
        )
        assert response["error"]["code"] == "unknown_graph"
        assert response["error"]["status"] == 404

    def test_exists_verb(self, service, graph):
        truth = MiningSession(graph)
        response = run(
            service.handle(
                {"verb": "exists", "graph": "g", "pattern": "clique:3"}
            )
        )
        assert response["ok"]
        assert response["result"]["exists"] == truth.exists(
            generate_clique(3)
        )

    def test_motifs_verb(self, service, graph):
        from repro.mining.motifs import motif_counts

        truth = {
            pattern: count
            for pattern, count in motif_counts(graph, 3).items()
        }
        response = run(
            service.handle({"verb": "motifs", "graph": "g", "size": 3})
        )
        assert response["ok"]
        assert sorted(response["result"]["counts"].values()) == sorted(
            truth.values()
        )

    def test_motifs_size_validated(self, service):
        response = run(
            service.handle({"verb": "motifs", "graph": "g", "size": 2})
        )
        assert response["error"]["code"] == "invalid_request"

    def test_stats_verb_shape(self, service):
        run(service.handle({"verb": "count", "graph": "g",
                            "pattern": "clique:3"}))
        response = run(service.handle({"verb": "stats"}))
        assert response["ok"]
        snapshot = response["result"]
        assert "count" in snapshot["requests"]
        assert "count" in snapshot["latency_ms"]
        assert snapshot["registry"]["sessions"] == 1
        assert "fusion_batch_rate" in snapshot["batching"]

    def test_errors_counted_per_verb(self, service):
        run(service.handle({"verb": "count", "graph": "g",
                            "pattern": "bogus"}))
        snapshot = service.stats()
        assert snapshot["errors"]["count"]["invalid_pattern"] == 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_histogram_quantiles_bracket_observations(self):
        histogram = LatencyHistogram()
        for ms in (0.3, 0.7, 3.0, 40.0, 9000.0):
            histogram.observe(ms)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["max_ms"] == 9000.0
        assert snapshot["p50_ms_le"] >= 3.0
        assert snapshot["buckets"]["overflow"] == 1

    def test_fusion_rate_definition(self):
        metrics = ServiceMetrics()
        metrics.record_batch(3, deduped=1)
        metrics.record_batch(1)
        metrics.record_solo()
        batching = metrics.snapshot()["batching"]
        assert batching["batches"] == 2
        assert batching["fused_batches"] == 1
        assert batching["fused_requests"] == 3
        # 3 fused of (3 + 1 batched-alone + 1 solo) executed requests.
        assert batching["fusion_batch_rate"] == pytest.approx(3 / 5)
        assert batching["deduped_requests"] == 1
        assert batching["max_batch_size"] == 3

    def test_registry_stats_folded_into_snapshot(self):
        metrics = ServiceMetrics()
        snapshot = metrics.snapshot(registry_stats={"sessions": 2})
        assert snapshot["registry"] == {"sessions": 2}


# ----------------------------------------------------------------------
# Queue edge cases
# ----------------------------------------------------------------------


class TestBatchingQueue:
    def test_max_batch_flushes_immediately(self, graph):
        session = MiningSession(graph)
        metrics = ServiceMetrics()

        async def go():
            with QueryPool(workers=1) as pool:
                # A wait window far longer than the test: only the
                # max_batch trigger can flush these.
                queue = BatchingQueue(
                    pool, metrics, max_wait_ms=60_000.0, max_batch=2
                )
                results = await asyncio.gather(
                    queue.submit(
                        "g", session, QueryJob("count", generate_clique(3))
                    ),
                    queue.submit(
                        "g", session, QueryJob("count", generate_star(3))
                    ),
                )
                await queue.close()
                return results

        clique, star = run(go())
        assert clique.count == session.count(generate_clique(3))
        assert star.count == session.count(generate_star(3))
        assert metrics.snapshot()["batching"]["max_batch_size"] == 2

    def test_close_flushes_pending_bucket(self, graph):
        session = MiningSession(graph)
        metrics = ServiceMetrics()

        async def go():
            with QueryPool(workers=1) as pool:
                queue = BatchingQueue(
                    pool, metrics, max_wait_ms=60_000.0, max_batch=64
                )
                pending = asyncio.ensure_future(
                    queue.submit(
                        "g", session, QueryJob("count", generate_clique(3))
                    )
                )
                await asyncio.sleep(0)  # let submit() park in the bucket
                await queue.close()
                return await pending

        assert run(go()).count == session.count(generate_clique(3))

    def test_validates_parameters(self, graph):
        metrics = ServiceMetrics()
        with QueryPool(workers=1) as pool:
            with pytest.raises(ValueError):
                BatchingQueue(pool, metrics, max_wait_ms=-1.0)
            with pytest.raises(ValueError):
                BatchingQueue(pool, metrics, max_batch=0)


# ----------------------------------------------------------------------
# Labeled graphs through the service
# ----------------------------------------------------------------------


class TestLabeledService:
    def test_labeled_pattern_batches_correctly(self):
        graph = with_random_labels(
            barabasi_albert(120, 3, seed=5), num_labels=3, seed=5
        )
        service = MiningService(ServiceConfig(workers=2, max_wait_ms=20.0))
        service.register_graph("g", graph)
        truth = MiningSession(graph)

        async def go():
            requests = [
                {"verb": "count", "graph": "g", "pattern": "p1"},
                {"verb": "count", "graph": "g", "pattern": "clique:3"},
            ]
            return await asyncio.gather(
                *[service.handle(r) for r in requests]
            )

        p1_response, clique_response = run(
            TestBatchingCorrectness._with_close(service, go)
        )
        from repro.cli.parsing import parse_pattern_spec

        assert p1_response["result"]["count"] == truth.count(
            parse_pattern_spec("p1")
        )
        assert clique_response["result"]["count"] == truth.count(
            generate_clique(3)
        )


# ----------------------------------------------------------------------
# Adaptive plan echo
# ----------------------------------------------------------------------


class TestPlanEcho:
    """count/match responses echo the plan their dispatch stage chose."""

    @pytest.fixture
    def service(self, graph):
        service = MiningService(ServiceConfig(workers=1, max_wait_ms=1.0))
        service.register_graph("g", graph)
        yield service
        run(service.close())

    def test_count_echoes_plan_and_counts_agree(self, service, graph):
        truth = MiningSession(graph)
        response = run(
            service.handle(
                {"verb": "count", "graph": "g", "pattern": "clique:3"}
            )
        )
        assert response["ok"]
        assert response["result"]["count"] == truth.count(generate_clique(3))
        echoed = response["result"]["plan"]
        assert echoed["engine"] in ("reference", "accel-batch")
        assert "schedule" not in echoed
        assert echoed["estimate"]["frontier_size"] > 0
        assert echoed["reasons"]

    def test_echo_reflects_the_requests_pins(self, service):
        response = run(
            service.handle(
                {"verb": "match", "graph": "g", "pattern": "chain:3",
                 "limit": 5,
                 "options": {"engine": "reference", "frontier_chunk": 77}}
            )
        )
        assert response["ok"], response
        echoed = response["result"]["plan"]
        assert (echoed["engine"], echoed["frontier_chunk"]) == (
            "reference", 77
        )

    def test_plan_gauges_in_stats(self, service):
        run(
            service.handle(
                {"verb": "count", "graph": "g", "pattern": "clique:3"}
            )
        )
        stats = run(service.handle({"verb": "stats"}))
        gauges = stats["result"]["planner"]
        assert gauges["planned_queries"] == 1
        assert sum(gauges["engines"].values()) == 1
        assert "schedules" not in gauges

    def test_plan_is_not_a_request_option(self, service):
        response = run(
            service.handle(
                {"verb": "count", "graph": "g", "pattern": "clique:3",
                 "options": {"plan": "auto"}}
            )
        )
        assert not response["ok"]
        assert response["error"]["code"] == "invalid_request"
