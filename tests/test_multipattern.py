"""Fused multi-pattern runner: parity, grouping, and parallel aggregate.

The fused runner must be *observationally identical* to sequential
per-pattern execution on the reference interpreter: per-pattern counts,
per-pattern callback order, and batch row multisets, across the full
pattern-feature matrix (labels, edge/vertex-induced, anti-edges,
anti-vertices), for every frontier chunking (1 / 2 / default).  The
census tier's Möbius demultiplexing is additionally pinned against known
closed-form relations, and ``aggregate`` over worker threads must equal
its sequential result for order-insensitive reducers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Budget,
    ExplorationControl,
    MiningSession,
    MultiPatternPlan,
    count,
    count_many,
    match,
    match_many,
    match_batches_many,
)
from repro.core.multipattern import (
    census_eligible,
    census_transform,
)
from repro.core.engine import EngineStats
from repro.errors import MatchingError
from repro.graph import erdos_renyi, with_random_labels
from repro.mining.cliques import maximal_clique_pattern
from repro.runtime import parallel_match, process_count_many
from repro.service.batching import QueryJob, _run_batch
from repro.pattern import (
    Pattern,
    generate_all_vertex_induced,
    generate_chain,
    generate_clique,
    generate_star,
)


def _labeled(p: Pattern, labels: dict[int, int]) -> Pattern:
    for u, lab in labels.items():
        p.set_label(u, lab)
    return p


def _anti_square() -> Pattern:
    p = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    p.add_anti_edge(0, 2)
    p.add_anti_edge(1, 3)
    return p


def _anti_vertex_star() -> Pattern:
    p = generate_star(3)
    p.add_anti_vertex([0, 1])
    return p


# Pattern *sets* (the fused runner's unit of work) spanning the feature
# matrix; each entry is (name, pattern-set factory, count_many kwargs).
PATTERN_SETS = [
    (
        "unlabeled-mix",
        lambda: [generate_clique(3), generate_chain(4), generate_star(3),
                 Pattern.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])],
        {},
    ),
    ("3-motifs", lambda: generate_all_vertex_induced(3), {"edge_induced": False}),
    ("4-motifs", lambda: generate_all_vertex_induced(4), {"edge_induced": False}),
    (
        "anti-edges",
        lambda: [_anti_square(), maximal_clique_pattern(3), generate_clique(3)],
        {},
    ),
    (
        "anti-vertices",
        lambda: [_anti_vertex_star(), generate_star(3), generate_chain(3)],
        {},
    ),
    (
        "no-symmetry",
        lambda: [generate_clique(3), generate_chain(3)],
        {"symmetry_breaking": False},
    ),
    (
        "labeled-mixed-pins",
        lambda: [
            _labeled(generate_chain(3), {0: 0, 2: 1}),
            _labeled(generate_chain(3), {0: 1, 2: 0}),
            _labeled(generate_clique(3), {0: 2}),
            generate_chain(3),
        ],
        {},
    ),
    (
        "vertex-induced-labeled",
        lambda: [
            _labeled(generate_star(3), {0: 1}),
            _labeled(generate_chain(3), {1: 0}),
            generate_clique(3),
        ],
        {"edge_induced": False},
    ),
]
SET_IDS = [name for name, _, _ in PATTERN_SETS]


def _graph_for(name: str, seed: int, n: int = 36, p: float = 0.22):
    if "label" in name:
        return with_random_labels(erdos_renyi(n, p, seed=seed), 3, seed=seed)
    return erdos_renyi(n, p, seed=seed)


def _reference_counts(graph, patterns, **kwargs):
    return {p: count(graph, p, engine="reference", **kwargs) for p in patterns}


# ----------------------------------------------------------------------
# Count parity: fused == sequential reference, full feature matrix
# ----------------------------------------------------------------------


class TestFusedCountParity:
    @pytest.mark.parametrize("name,set_fn,kwargs", PATTERN_SETS, ids=SET_IDS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_fused_matches_reference(self, name, set_fn, kwargs, seed):
        g = _graph_for(name, seed)
        patterns = set_fn()
        expected = _reference_counts(g, patterns, **kwargs)
        session = MiningSession(g)
        assert session.count_many(patterns, engine="accel-batch", **kwargs) == expected
        assert session.count_many(patterns, engine="auto", **kwargs) == expected

    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize("name,set_fn,kwargs", PATTERN_SETS, ids=SET_IDS)
    def test_frontier_chunks(self, name, set_fn, kwargs, chunk):
        g = _graph_for(name, seed=7)
        patterns = set_fn()
        expected = _reference_counts(g, patterns, **kwargs)
        got = MiningSession(g).count_many(
            patterns, engine="accel-batch", frontier_chunk=chunk, **kwargs
        )
        assert got == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_census_subsets(self, seed):
        """Random motif subsets keep the census tier's inversion exact."""
        import random

        rng = random.Random(seed)
        g = erdos_renyi(40, 0.25, seed=seed)
        pool = generate_all_vertex_induced(3) + generate_all_vertex_induced(4)
        patterns = rng.sample(pool, rng.randint(2, len(pool)))
        expected = _reference_counts(g, patterns, edge_induced=False)
        got = MiningSession(g).count_many(
            patterns, edge_induced=False, engine="accel-batch"
        )
        assert got == expected

    def test_legacy_shim_routes_fusion(self):
        g = erdos_renyi(30, 0.25, seed=9)
        patterns = generate_all_vertex_induced(3)
        assert count_many(g, patterns, edge_induced=False) == _reference_counts(
            g, patterns, edge_induced=False
        )


# ----------------------------------------------------------------------
# Callback order and batch parity
# ----------------------------------------------------------------------


class TestFusedCallbackParity:
    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize(
        "name,set_fn,kwargs",
        [s for s in PATTERN_SETS if s[0] != "no-symmetry"],
        ids=[name for name, _, _ in PATTERN_SETS if name != "no-symmetry"],
    )
    def test_per_pattern_callback_order(self, name, set_fn, kwargs, chunk):
        """Every member's callback sequence equals its standalone run."""
        g = _graph_for(name, seed=5)
        patterns = set_fn()
        collected = [[] for _ in patterns]
        callbacks = [
            (lambda m, bucket=bucket: bucket.append(m.mapping))
            for bucket in collected
        ]
        totals = MiningSession(g).match_many(
            patterns, callbacks, engine="accel-batch", frontier_chunk=chunk,
            **kwargs,
        )
        for i, p in enumerate(patterns):
            expected: list[tuple[int, ...]] = []
            n = match(
                g, p, callback=lambda m: expected.append(m.mapping),
                engine="reference", **kwargs,
            )
            assert collected[i] == expected, f"callback order diverged for {p!r}"
            assert totals[i] == n

    def test_partial_callbacks(self):
        """Members without callbacks count; members with callbacks fire."""
        g = erdos_renyi(32, 0.25, seed=13)
        patterns = [generate_clique(3), generate_chain(3), generate_star(3)]
        seen: list[tuple[int, ...]] = []
        totals = MiningSession(g).match_many(
            patterns, [None, lambda m: seen.append(m.mapping), None],
            engine="accel-batch",
        )
        assert totals == [count(g, p) for p in patterns]
        assert len(seen) == totals[1]

    @pytest.mark.parametrize("chunk", [2, None])
    def test_match_batches_many_row_multisets(self, chunk):
        g = with_random_labels(erdos_renyi(34, 0.25, seed=17), 2, seed=3)
        patterns = [
            generate_clique(3),
            generate_chain(3),
            _labeled(generate_chain(3), {0: 0}),
        ]
        rows = [[] for _ in patterns]
        on_batches = [
            (lambda batch, bucket=bucket: bucket.extend(
                tuple(int(v) for v in row) for row in batch
            ))
            for bucket in rows
        ]
        totals = match_batches_many(
            g, patterns, on_batches, frontier_chunk=chunk, engine="accel-batch"
        )
        for i, p in enumerate(patterns):
            expected: list[tuple[int, ...]] = []
            n = match(
                g, p, callback=lambda m: expected.append(m.mapping),
                engine="reference",
            )
            assert sorted(rows[i]) == sorted(expected)
            assert totals[i] == n == len(rows[i])

    def test_match_many_shim(self):
        g = erdos_renyi(30, 0.25, seed=21)
        patterns = [generate_clique(3), generate_chain(4)]
        assert match_many(g, patterns) == [count(g, p) for p in patterns]


# ----------------------------------------------------------------------
# One executor under every driver: tier x driver parity table
# ----------------------------------------------------------------------

# Every driver only chooses start vertices; the compiled plan and the two
# executors underneath are the same.  Reference interpreter as oracle.
TIERS = {
    "edge-induced-direct": ("unlabeled-mix", {}),
    "vertex-induced-census": ("4-motifs", {"edge_induced": False}),
    "label-pinned": ("labeled-mixed-pins", {}),
}


def _tier(name):
    set_name, flags = TIERS[name]
    set_fn = next(fn for sid, fn, _ in PATTERN_SETS if sid == set_name)
    return _graph_for(set_name, seed=7, n=48), set_fn(), flags


def _drive_in_process(session, patterns, flags):
    counts = session.count_many(patterns, engine="accel-batch", **flags)
    assert session.match_many(patterns, engine="accel-batch", **flags) == list(
        counts.values()
    )
    return counts


def _drive_processes(share_mode):
    def drive(session, patterns, flags):
        return process_count_many(
            session, patterns, num_processes=2, share_mode=share_mode, **flags
        )

    return drive


def _drive_sampling(session, patterns, flags):
    # max_samples >= frontier: the estimator must degenerate to exact.
    estimates = session.count_many(
        patterns, approx=0.05, seed=1,
        max_samples=session.graph.num_vertices, engine="accel-batch", **flags,
    )
    assert all(est.exact and est.ci_low == est.ci_high for est in estimates.values())
    return {p: int(est) for p, est in estimates.items()}


def _drive_threads(session, patterns, flags):
    return {
        p: parallel_match(session, p, num_threads=2, **flags).matches
        for p in patterns
    }


def _drive_service_batch(session, patterns, flags):
    jobs = [QueryJob("count", p, options=dict(flags)) for p in patterns]
    outcomes, _ = _run_batch(session, jobs)
    return {p: outcome.count for p, outcome in zip(patterns, outcomes)}


DRIVERS = {
    "in-process": _drive_in_process,
    "processes-fork": _drive_processes("fork"),
    "processes-mmap": _drive_processes("mmap"),
    "sampling-exhausted": _drive_sampling,
    "threads": _drive_threads,
    "service-batch": _drive_service_batch,
}


class TestOneExecutorEveryDriver:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_counts_equal_the_reference_interpreter(self, tier, driver):
        g, patterns, flags = _tier(tier)
        assert DRIVERS[driver](MiningSession(g), patterns, flags) == (
            _reference_counts(g, patterns, **flags)
        )

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_mixed_count_callback_and_batch_consumers(self, tier):
        """One group, three kinds of consumer: a count-only member (on
        the census tier where it applies), a callback and a batch."""
        g, patterns, flags = _tier(tier)
        session = MiningSession(g)
        seen, rows = [], []
        callbacks = [None, lambda m: seen.append(m.mapping)] + [None] * (
            len(patterns) - 2
        )
        on_batches = [None, None, lambda a: rows.extend(map(tuple, a.tolist()))] + [
            None
        ] * (len(patterns) - 3)
        totals = session._execute(
            session._stage(patterns, session.options(engine="accel-batch", **flags)),
            callbacks, on_batches,
        )
        assert totals == list(_reference_counts(g, patterns, **flags).values())
        for got, pattern in ((seen, patterns[1]), (rows, patterns[2])):
            expected = []
            match(g, pattern, expected.append, engine="reference", **flags)
            assert sorted(got) == sorted(m.mapping for m in expected)

    def test_service_batch_mixes_count_and_match_jobs(self):
        g, patterns, flags = _tier("vertex-induced-census")
        jobs = [QueryJob("count", p, options=dict(flags)) for p in patterns]
        jobs.append(QueryJob("match", patterns[0], options=dict(flags), limit=10**6))
        outcomes, deduped = _run_batch(MiningSession(g), jobs)
        expected = _reference_counts(g, patterns, **flags)
        assert [o.count for o in outcomes[:-1]] == list(expected.values())
        assert outcomes[-1].count == len(outcomes[-1].rows) == expected[patterns[0]]
        assert deduped == 0


# ----------------------------------------------------------------------
# Grouping, dispatch and error behaviour
# ----------------------------------------------------------------------


def _compile(session, patterns, consumers=None, **options):
    """Stage then compile, as every driver does."""
    staged = session._stage(patterns, session.options(**options))
    return MultiPatternPlan.build(
        session, patterns, staged.plans, staged.opts, consumers
    )


class TestMultiPatternPlan:
    def test_unlabeled_patterns_share_one_group(self):
        session = MiningSession(erdos_renyi(10, 0.3, seed=1))
        multi = _compile(
            session, [generate_clique(3), generate_chain(3), generate_star(3)]
        )
        assert multi.groups == ((0, 1, 2),)
        assert multi.group_keys == (None,)
        # edge-induced: every member is counted by its own plan
        assert multi.direct == ((0, 1, 2),) and multi.census == ((),)
        assert multi.members == (multi.plans,)

    def test_label_pins_split_groups(self):
        session = MiningSession(
            with_random_labels(erdos_renyi(10, 0.3, seed=2), 3, seed=2)
        )
        fully_pinned = _labeled(generate_chain(3), {0: 0, 1: 1, 2: 1})
        same_pin = _labeled(generate_chain(3), {0: 1, 1: 0, 2: 0})
        wildcard = generate_chain(3)
        multi = _compile(session, [fully_pinned, same_pin, wildcard])
        keys = {key for key in multi.group_keys}
        # The wildcard pattern seeds from every vertex (key None); the
        # pinned patterns group by their pinned top-label sets.
        assert None in keys
        assert len(multi.groups) >= 2

    def test_a_lone_pattern_is_a_group_of_one(self):
        session = MiningSession(erdos_renyi(10, 0.3, seed=3))
        multi = _compile(session, [generate_clique(3)])
        assert multi.groups == ((0,),) and multi.direct == ((0,),)
        assert multi.members == (multi.plans,)

    def test_label_index_off_collapses_groups(self):
        session = MiningSession(
            with_random_labels(erdos_renyi(10, 0.3, seed=4), 2, seed=4)
        )
        multi = _compile(
            session,
            [_labeled(generate_chain(3), {0: 0, 1: 1, 2: 1}), generate_chain(3)],
            label_index=False,
        )
        assert multi.groups == ((0, 1),)
        assert multi.group_keys == (None,)

    def test_census_tier_has_one_rule(self):
        """Count-only, vertex-induced, symmetry-broken, unpinned, >= 2
        eligible members, nothing that can stop the run early."""
        session = MiningSession(erdos_renyi(12, 0.3, seed=5))
        motifs = generate_all_vertex_induced(4)
        multi = _compile(session, motifs, edge_induced=False)
        assert multi.direct == ((),)
        assert [idx for idx, _ in multi.census[0]] == list(range(len(motifs)))
        assert len(multi.members[0]) == len(multi.transforms[0].basis)
        # the basis is anti-edge-free: arithmetic tail counts, no
        # membership kernels
        assert all(
            plan.edge_induced and plan.matched_pattern.num_anti_edges == 0
            for plan in multi.members[0]
        )
        # a consumer keeps its member on its own plan
        streamed = _compile(
            session, motifs, {0: (lambda m: None, None)}, edge_induced=False
        )
        assert streamed.direct == ((0,),) and len(streamed.census[0]) == 5
        for off in (
            dict(edge_induced=True),
            dict(edge_induced=False, symmetry_breaking=False),
            dict(edge_induced=False, control=ExplorationControl()),
            dict(edge_induced=False, budget=Budget(max_matches=10**9)),
            dict(edge_induced=False, start_vertices=[0, 1]),
        ):
            plain = _compile(session, motifs, **off)
            assert plain.census == ((),) and plain.transforms == (None,), off
        one = _compile(session, motifs[:1], edge_induced=False)
        assert one.direct == ((0,),)

    def test_compiled_plan_is_picklable_and_demuxes(self):
        import pickle

        g = erdos_renyi(16, 0.35, seed=6)
        session = MiningSession(g)
        motifs = generate_all_vertex_induced(4)
        multi = pickle.loads(pickle.dumps(_compile(session, motifs, edge_induced=False)))
        # two halves of the frontier, summed raw, invert to the census
        frontier = session._frontier(None)
        raw = [
            a + b
            for a, b in zip(
                multi.run_group(0, session.ordered, frontier[::2]),
                multi.run_group(0, session.ordered, frontier[1::2]),
            )
        ]
        totals = multi.demux(0, raw)
        assert [totals[i] for i in range(len(motifs))] == [
            count(g, p, edge_induced=False, engine="reference") for p in motifs
        ]


class TestFusedDispatchErrors:
    def test_fused_requires_no_stats(self):
        g = erdos_renyi(20, 0.3, seed=5)
        with pytest.raises(MatchingError):
            MiningSession(g).count_many(
                [generate_clique(3), generate_chain(3)],
                engine="accel-batch",
                stats=EngineStats(),
            )

    def test_fused_honors_control(self):
        # Control no longer pins the reference interpreter: the fused
        # walker polls it per slice (and members poll it per block).
        from repro.core.callbacks import ExplorationControl

        g = erdos_renyi(20, 0.3, seed=5)
        patterns = [generate_clique(3), generate_chain(3)]
        expected = _reference_counts(g, patterns)
        control = ExplorationControl()
        got = MiningSession(g).count_many(
            patterns, engine="accel-batch", control=control
        )
        assert got == expected
        control.stop()  # a pre-stopped control short-circuits every slice
        got = MiningSession(g).count_many(
            patterns, engine="accel-batch", control=control
        )
        assert all(v == 0 for v in got.values())

    def test_unknown_engine_rejected(self):
        g = erdos_renyi(20, 0.3, seed=5)
        with pytest.raises(ValueError):
            MiningSession(g).count_many([generate_clique(3)], engine="warp")

    def test_callback_count_mismatch(self):
        g = erdos_renyi(20, 0.3, seed=5)
        with pytest.raises(ValueError):
            MiningSession(g).match_many(
                [generate_clique(3), generate_chain(3)], [None]
            )

    def test_stats_fall_back_sequentially_under_auto(self):
        g = erdos_renyi(24, 0.3, seed=6)
        stats = EngineStats()
        patterns = [generate_clique(3), generate_chain(3)]
        got = MiningSession(g).count_many(patterns, stats=stats)
        assert got == _reference_counts(g, patterns)
        assert stats.tasks > 0  # the reference engine actually ran


# ----------------------------------------------------------------------
# Census transform (the Möbius tier) in isolation
# ----------------------------------------------------------------------


class TestCensusTransform:
    def test_triangle_wedge_relation(self):
        """The classic relation: noninduced wedges = induced + 3*triangles."""
        wedge, triangle = generate_chain(3), generate_clique(3)
        transform = census_transform([wedge, triangle])
        assert len(transform.order) == 2
        noninduced = {code: 0 for code, _ in transform.order}
        # Inject N_triangle = 5, N_wedge = 40: I_wedge must be 40 - 3*5.
        for code, pattern in transform.order:
            noninduced[code] = 5 if pattern.num_edges == 3 else 40
        induced = transform.induced_counts(noninduced)
        by_edges = {p.num_edges: induced[c] for c, p in transform.order}
        assert by_edges[3] == 5
        assert by_edges[2] == 40 - 3 * 5

    def test_closure_reaches_complete_graph(self):
        transform = census_transform([generate_chain(4)])
        sizes = sorted(p.num_edges for _, p in transform.order)
        assert sizes[-1] == 6  # K4 tops the 4-vertex lattice
        assert all(p.num_vertices == 4 for _, p in transform.order)

    def test_eligibility(self):
        assert census_eligible(generate_clique(3))
        assert not census_eligible(_labeled(generate_chain(3), {0: 0}))
        assert not census_eligible(_anti_square())
        assert not census_eligible(_anti_vertex_star())
        assert not census_eligible(generate_clique(6))  # above the size cap

    def test_transform_cached_per_session(self):
        g = erdos_renyi(24, 0.3, seed=8)
        session = MiningSession(g)
        patterns = generate_all_vertex_induced(3)
        session.count_many(patterns, edge_induced=False, engine="accel-batch")
        cached = dict(session._census)
        session.count_many(patterns, edge_induced=False, engine="accel-batch")
        assert session._census == cached and len(cached) == 1


# ----------------------------------------------------------------------
# Parallel aggregate determinism
# ----------------------------------------------------------------------


class TestParallelAggregate:
    @pytest.mark.parametrize("seed", [5, 19])
    def test_threaded_sum_equals_sequential(self, seed):
        g = with_random_labels(erdos_renyi(40, 0.25, seed=seed), 2, seed=seed)
        patterns = [generate_clique(3), generate_chain(3)]
        map_fn = lambda m: (m.pattern.signature(), 1)  # noqa: E731
        session = MiningSession(g)
        sequential = session.aggregate(patterns, map_fn)
        threaded = session.aggregate(patterns, map_fn, num_threads=4)
        assert threaded == sequential
        for p in patterns:
            assert threaded[p.signature()] == count(g, p)

    def test_threaded_order_insensitive_reduce(self):
        g = erdos_renyi(36, 0.3, seed=23)
        session = MiningSession(g)
        map_fn = lambda m: ("min-vertex", min(m.vertices()))  # noqa: E731
        sequential = session.aggregate(generate_clique(3), map_fn, reduce=max)
        threaded = session.aggregate(
            generate_clique(3), map_fn, reduce=max, num_threads=3
        )
        assert threaded == sequential

    def test_threaded_aggregate_rejects_unsupported_options(self):
        """Knobs the thread pool cannot honor fail loudly, not silently."""
        g = erdos_renyi(24, 0.3, seed=31)
        session = MiningSession(g)
        map_fn = lambda m: ("k", 1)  # noqa: E731
        with pytest.raises(MatchingError, match="start_vertices"):
            session.aggregate(
                generate_clique(3), map_fn, num_threads=2, start_vertices=[5]
            )
        with pytest.raises(MatchingError, match="stats"):
            session.aggregate(
                generate_clique(3), map_fn, num_threads=2, stats=EngineStats()
            )
        # Regression: budgets and the sampling knobs used to be dropped
        # silently — the threaded run returned the full aggregate where
        # num_threads=1 raises BudgetExceededError.
        for name, value in (
            ("budget", Budget(deadline=1e-9)),
            ("budget", Budget(max_matches=5)),
            ("approx", 0.1),
        ):
            with pytest.raises(MatchingError, match=name):
                session.aggregate(
                    generate_clique(3), map_fn, num_threads=2, **{name: value}
                )
        # latency_budget is a routing hint: an enumerating run ignores it
        # at any thread count.
        for num_threads in (1, 2):
            assert session.aggregate(
                generate_clique(3), map_fn, num_threads=num_threads,
                latency_budget=1e-9,
            ) == {"k": session.count(generate_clique(3))}

    def test_threaded_aggregate_forwards_guard_and_label_index(self, monkeypatch):
        """Regression: per-call guard/label_index never reached the
        thread runtime; the options now go over whole."""
        from repro.errors import QueryRefusedError
        from repro.runtime import guards

        g = with_random_labels(erdos_renyi(40, 0.25, seed=7), 2, seed=7)
        session = MiningSession(g)
        p = _labeled(generate_chain(3), {0: 0, 1: 1, 2: 0})
        map_fn = lambda m: ("k", 1)  # noqa: E731
        expected = {"k": count(g, p)}
        assert session.aggregate(p, map_fn, num_threads=2) == expected
        assert None not in session._starts  # chunks of the pinned frontier
        assert session.aggregate(
            p, map_fn, num_threads=2, label_index=False
        ) == expected
        assert None in session._starts  # ... and now of the whole one
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        with pytest.raises(QueryRefusedError):
            session.aggregate(p, map_fn, num_threads=2, guard="refuse")

    def test_threaded_on_update_sees_cumulative_totals(self):
        """on_update observes one map accumulating across patterns."""
        g = erdos_renyi(36, 0.3, seed=37)
        session = MiningSession(g)
        patterns = [generate_clique(3), generate_chain(3)]
        observed: list[int] = []
        session.aggregate(
            patterns,
            lambda m: ("all", 1),
            num_threads=2,
            on_update=lambda agg: observed.append(agg.get("all") or 0),
        )
        total = sum(count(g, p) for p in patterns)
        # The final sweeps see the cross-pattern total, and the observed
        # series never decreases (nothing is reset between patterns).
        assert observed and max(observed) == total
        assert observed == sorted(observed)

    def test_sequential_multi_pattern_aggregate_fuses(self):
        """The fused aggregate path returns the same map as per-pattern."""
        g = erdos_renyi(30, 0.28, seed=29)
        patterns = [generate_clique(3), generate_chain(3), generate_star(3)]
        session = MiningSession(g)
        agg = session.aggregate(patterns, lambda m: (m.pattern.signature(), 1))
        for p in patterns:
            assert agg[p.signature()] == count(g, p)