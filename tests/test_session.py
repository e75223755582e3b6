"""Session API parity, cache behaviour, and legacy-shim stability.

The session redesign must be *observationally invisible* through the
legacy surface: ``MiningSession`` verbs return exactly what the
module-level :mod:`repro.core.api` functions return — counts, callback
sequences, batch row multisets, aggregates — across the full
pattern-feature matrix (labels, vertex-induced matching, anti-edges,
anti-vertices, symmetry-breaking ablation).  On top of parity, the
session must actually *reuse* state (plan cache, degree ordering, CSR
view), and the legacy functions must keep their exact signatures, since
they are the documented deprecation shims.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExecOptions,
    MiningSession,
    as_session,
    count,
    count_many,
    exists,
    match,
    match_batches,
)
from repro.core import api as api_module
from repro.core.callbacks import ExplorationControl
from repro.errors import MatchingError
from repro.graph import erdos_renyi, from_edges, with_random_labels
from repro.mining.cliques import maximal_clique_pattern
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


def _feature_matrix():
    """(name, pattern factory, match kwargs) across every feature class."""

    def anti_square():
        p = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        p.add_anti_edge(0, 2)
        p.add_anti_edge(1, 3)
        return p

    def anti_vertex_star():
        p = generate_star(3)
        p.add_anti_vertex([0, 1])
        return p

    return [
        ("clique3", lambda: generate_clique(3), {}),
        ("chain4-single-core", lambda: generate_chain(4), {}),
        ("tailed-triangle", lambda: Pattern.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)]), {}),
        ("vertex-induced-star", lambda: generate_star(3),
         {"edge_induced": False}),
        ("anti-edge-square", anti_square, {}),
        ("anti-vertex-star", anti_vertex_star, {}),
        ("maximal-clique", lambda: maximal_clique_pattern(3), {}),
        ("labeled-chain", lambda: _labeled(generate_chain(3), {0: 0, 2: 1}),
         {}),
        ("no-symmetry-clique", lambda: generate_clique(3),
         {"symmetry_breaking": False}),
    ]


FEATURE_MATRIX = _feature_matrix()
FEATURE_IDS = [name for name, _, _ in FEATURE_MATRIX]


def _graph_for(name, seed):
    if name.startswith("labeled"):
        return with_random_labels(erdos_renyi(32, 0.25, seed=seed), 3, seed=seed)
    return erdos_renyi(32, 0.25, seed=seed)


# ----------------------------------------------------------------------
# Parity: session verbs == legacy module functions
# ----------------------------------------------------------------------


class TestSessionParity:
    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs", FEATURE_MATRIX, ids=FEATURE_IDS
    )
    def test_count_parity(self, name, pattern_fn, kwargs):
        g = _graph_for(name, seed=5)
        p = pattern_fn()
        session = MiningSession(g)
        assert session.count(p, **kwargs) == count(g, p, **kwargs)

    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs", FEATURE_MATRIX, ids=FEATURE_IDS
    )
    def test_callback_sequence_parity(self, name, pattern_fn, kwargs):
        g = _graph_for(name, seed=7)
        p = pattern_fn()
        via_session: list[tuple[int, ...]] = []
        via_api: list[tuple[int, ...]] = []
        n1 = MiningSession(g).match(
            p, lambda m: via_session.append(m.mapping), **kwargs
        )
        n2 = match(g, p, callback=lambda m: via_api.append(m.mapping), **kwargs)
        assert n1 == n2
        assert via_session == via_api  # order, not just multiset

    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs", FEATURE_MATRIX, ids=FEATURE_IDS
    )
    def test_batch_rows_parity(self, name, pattern_fn, kwargs):
        g = _graph_for(name, seed=9)
        p = pattern_fn()
        rows_session: list[tuple[int, ...]] = []
        rows_api: list[tuple[int, ...]] = []
        n1 = MiningSession(g).match_batches(
            p,
            lambda arr: rows_session.extend(tuple(r) for r in arr.tolist()),
            **kwargs,
        )
        n2 = match_batches(
            g,
            p,
            lambda arr: rows_api.extend(tuple(r) for r in arr.tolist()),
            **kwargs,
        )
        assert n1 == n2
        assert sorted(rows_session) == sorted(rows_api)

    def test_count_many_parity(self):
        g = erdos_renyi(40, 0.2, seed=3)
        patterns = generate_all_vertex_induced(3)
        session = MiningSession(g)
        got = session.count_many(patterns, edge_induced=False)
        assert got == count_many(g, patterns, edge_induced=False)

    def test_exists_parity(self):
        triangle_free = from_edges([(0, 1), (1, 2), (2, 3)])
        with_triangle = from_edges([(0, 1), (1, 2), (0, 2)])
        for g in (triangle_free, with_triangle):
            assert MiningSession(g).exists(generate_clique(3)) == exists(
                g, generate_clique(3)
            )

    def test_aggregate_matches_counts(self):
        g = with_random_labels(erdos_renyi(40, 0.2, seed=11), 2, seed=4)
        session = MiningSession(g)
        patterns = [generate_clique(3), generate_chain(3)]
        agg = session.aggregate(
            patterns, lambda m: (m.pattern.signature(), 1)
        )
        for p in patterns:
            assert agg[p.signature()] == count(g, p)

    def test_aggregate_custom_reduce(self):
        g = erdos_renyi(30, 0.25, seed=13)
        session = MiningSession(g)
        # max over the smallest matched vertex id — exercises a
        # non-additive combine through the aggregator thread.
        agg = session.aggregate(
            generate_clique(3),
            lambda m: ("min-vertex", min(m.vertices())),
            reduce=max,
        )
        expected: list[int] = []
        match(g, generate_clique(3), callback=lambda m: expected.append(
            min(m.vertices())
        ))
        assert agg["min-vertex"] == max(expected)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_fuzz_count_parity(self, seed):
        g = erdos_renyi(26, 0.25, seed=seed)
        gl = with_random_labels(erdos_renyi(26, 0.25, seed=seed), 3, seed=seed)
        for name, pattern_fn, kwargs in FEATURE_MATRIX:
            graph = gl if name.startswith("labeled") else g
            p = pattern_fn()
            assert MiningSession(graph).count(p, **kwargs) == count(
                graph, p, **kwargs
            ), name


# ----------------------------------------------------------------------
# ExecOptions resolution
# ----------------------------------------------------------------------


class TestExecOptions:
    def test_merged_overrides_fields(self):
        opts = ExecOptions().merged({"engine": "reference", "label_index": False})
        assert opts.engine == "reference"
        assert not opts.label_index
        assert opts.edge_induced  # untouched defaults survive

    def test_merged_rejects_unknown_option(self):
        with pytest.raises(TypeError, match="frontier_chunks"):
            ExecOptions().merged({"frontier_chunks": 1})

    def test_session_defaults_flow_into_runs(self):
        g = erdos_renyi(30, 0.25, seed=2)
        forced = MiningSession(g, engine="reference")
        assert forced.defaults.engine == "reference"
        assert forced.count(generate_clique(3)) == count(g, generate_clique(3))

    def test_per_call_override_beats_session_default(self):
        g = erdos_renyi(30, 0.25, seed=2)
        session = MiningSession(g, edge_induced=False)
        wedge = generate_chain(3)
        assert session.count(wedge) == count(g, wedge, edge_induced=False)
        assert session.count(wedge, edge_induced=True) == count(g, wedge)

    def test_per_call_only_options_rejected_as_defaults(self):
        g = erdos_renyi(10, 0.3, seed=1)
        from repro.core import generate_plan

        with pytest.raises(ValueError):
            MiningSession(g, plan=generate_plan(generate_clique(3)))
        with pytest.raises(ValueError):
            MiningSession(g, start_vertices=[0, 1])

    def test_defaults_and_options_are_exclusive(self):
        g = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(TypeError):
            MiningSession(g, ExecOptions(), engine="reference")

    def test_unknown_engine_still_value_error(self):
        g = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(ValueError):
            MiningSession(g).count(generate_clique(3), engine="warp-drive")

    # Distinct-from-default sample values per overridable field, so a
    # field-by-field check can tell "overridden" from "inherited".
    _OVERRIDE_SAMPLES = {
        "edge_induced": st.just(False),
        "symmetry_breaking": st.just(False),
        "engine": st.sampled_from(["reference", "accel-batch"]),
        "frontier_chunk": st.integers(min_value=1, max_value=64),
        "label_index": st.just(False),
    }

    @given(
        overrides=st.fixed_dictionaries(
            {}, optional=_OVERRIDE_SAMPLES
        ),
        base_engine=st.sampled_from(["auto", "reference"]),
        base_samples=st.integers(min_value=1, max_value=9999),
    )
    @settings(max_examples=60)
    def test_merged_resolves_field_by_field(
        self, overrides, base_engine, base_samples
    ):
        """Random override subsets: overridden fields take the override,
        every other field keeps the session default, and the defaults
        object itself is never mutated."""
        import dataclasses

        defaults = ExecOptions(engine=base_engine, max_samples=base_samples)
        snapshot = dataclasses.asdict(defaults)
        merged = defaults.merged(overrides)
        for field in dataclasses.fields(ExecOptions):
            expected = overrides.get(field.name, getattr(defaults, field.name))
            assert getattr(merged, field.name) == expected, field.name
        assert dataclasses.asdict(defaults) == snapshot
        if not overrides:
            assert merged is defaults  # no-op merges don't copy

    @given(
        overrides=st.fixed_dictionaries({}, optional=_OVERRIDE_SAMPLES),
        bogus=st.sampled_from(
            ["frontier_chunks", "Engine", "chunk", "threads", ""]
        ),
    )
    @settings(max_examples=30)
    def test_merged_unknown_names_raise(self, overrides, bogus):
        with pytest.raises(TypeError, match="unknown execution option"):
            ExecOptions().merged({**overrides, bogus: 1})

    def test_merged_engine_none_inherits(self):
        defaults = ExecOptions(engine="reference")
        assert defaults.merged({"engine": None}).engine == "reference"
        merged = defaults.merged({"engine": None, "frontier_chunk": 7})
        assert merged.frontier_chunk == 7

    def test_option_surface_is_pinned(self, capsys):
        """Every execution knob, exactly.  A new knob must edit this set
        on purpose; the service may expose a subset, never more.  The
        deleted work-placement knobs fail loudly on every surface."""
        import dataclasses

        from repro.cli import build_parser
        from repro.runtime import parallel_match, process_count
        from repro.service.handlers import ALLOWED_OPTIONS

        fields = {f.name for f in dataclasses.fields(ExecOptions)}
        assert fields == {
            "edge_induced", "symmetry_breaking", "engine", "frontier_chunk",
            "label_index", "start_vertices", "control", "stats", "timer",
            "plan", "budget", "on_budget", "guard", "approx", "confidence",
            "max_samples", "latency_budget", "seed",
        }
        assert set(ALLOWED_OPTIONS) <= fields
        g = erdos_renyi(10, 0.3, seed=1)
        for knob in ({"schedule": "dynamic"}, {"chunk_hint": 2}):
            with pytest.raises(TypeError, match="unknown execution option"):
                MiningSession(g, **knob)
            for runtime in (parallel_match, process_count):
                with pytest.raises(TypeError):
                    runtime(g, generate_clique(3), **knob)
        for argv in (
            ["count", "--schedule", "static"],
            ["count", "--chunk-hint", "2"],
        ):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(
                    [*argv, "--pattern", "clique:3"]
                )
            assert info.value.code == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# Cache behaviour: the whole point of a session
# ----------------------------------------------------------------------


class TestSessionCaches:
    def test_plan_cache_hits_on_repeat_queries(self):
        g = erdos_renyi(30, 0.25, seed=4)
        session = MiningSession(g)
        p = generate_clique(3)
        session.count(p)
        assert session.cache_info()["plan_misses"] == 1
        session.count(p)
        session.match(p, lambda m: None)
        info = session.cache_info()
        assert info["plan_misses"] == 1
        assert info["plan_hits"] == 2
        # Same flags -> the very same plan object.
        assert session.plan_for(p) is session.plan_for(p)

    def test_plan_cache_distinguishes_flags(self):
        g = erdos_renyi(30, 0.25, seed=4)
        session = MiningSession(g)
        p = generate_star(3)
        session.count(p)
        session.count(p, edge_induced=False)
        session.count(p, symmetry_breaking=False)
        assert session.cache_info()["plans"] == 3

    def test_ordering_and_view_are_shared_objects(self):
        g = erdos_renyi(30, 0.25, seed=6)
        session = MiningSession(g)
        session.count(generate_clique(3))
        assert session.ordered is g.degree_ordered()[0]
        assert session.view is session.ordered

    def test_legacy_api_shares_the_graph_session(self):
        g = erdos_renyi(30, 0.25, seed=8)
        p = generate_clique(3)
        count(g, p)
        count(g, p)
        shared = MiningSession.for_graph(g)
        assert shared.cache_info()["plan_hits"] >= 1
        assert as_session(g) is shared

    def test_label_start_lists_cached(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=9), 3, seed=2)
        session = MiningSession(g)
        p = _labeled(generate_chain(3), {0: 0, 2: 1})
        session.count(p)
        session.count(p)
        assert session.cache_info()["start_lists"] == 1

    def test_pattern_mutation_misses_instead_of_staleness(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=10), 2, seed=3)
        session = MiningSession(g)
        p = generate_chain(3)
        session.count(p)
        p.set_label(0, 1)  # mutate after caching
        labeled = session.count(p)
        assert labeled == count(g, p, engine="reference")
        assert session.cache_info()["plan_misses"] == 2

    def test_as_session_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_session([[0, 1]])


# ----------------------------------------------------------------------
# Early termination through the batched engine (session dispatch)
# ----------------------------------------------------------------------


class TestSessionEarlyTermination:
    def test_forced_batch_with_control_stops_at_limit(self):
        g = erdos_renyi(40, 0.3, seed=12)
        session = MiningSession(g)
        control = ExplorationControl()
        seen: list[tuple[int, ...]] = []

        def capped(m):
            seen.append(m.mapping)
            if len(seen) >= 4:
                control.stop()

        total = session.match(
            generate_clique(3), capped, control=control, engine="accel-batch"
        )
        assert control.stopped
        assert len(seen) == 4
        # The batched engine's count equals the callbacks actually fired.
        assert total == 4

    def test_removed_per_match_engine_rejected_naming_choices(self):
        # "accel" was the per-match numpy tier; the two survivors (and
        # "auto") are the whole single-pattern engine surface.
        from repro.core.session import _ENGINE_CHOICES, _MULTI_ENGINE_CHOICES

        assert _ENGINE_CHOICES == ("auto", "accel-batch", "reference")
        session = MiningSession(erdos_renyi(20, 0.3, seed=12))
        with pytest.raises(ValueError) as info:
            session.count(generate_clique(3), engine="accel")
        for choice in _ENGINE_CHOICES:
            assert repr(choice) in str(info.value)
        with pytest.raises(ValueError) as info:
            session.count_many([generate_clique(3)], engine="accel")
        for choice in _MULTI_ENGINE_CHOICES:
            assert repr(choice) in str(info.value)

    def test_multi_core_control_stops_at_limit(self):
        # Vertex-induced 4-chains have 3 ordered cores, the order-merged
        # emission path: with a control attached, start slices shrink to
        # single vertices so the stopping callback isn't deferred behind
        # a whole chunk of buffered matches.
        g = erdos_renyi(40, 0.3, seed=18)
        session = MiningSession(g)
        control = ExplorationControl()
        seen: list[tuple[int, ...]] = []

        def capped(m):
            seen.append(m.mapping)
            if len(seen) >= 3:
                control.stop()

        total = session.match(
            generate_chain(4),
            capped,
            edge_induced=False,
            control=control,
            engine="accel-batch",
        )
        assert control.stopped
        assert total == len(seen) == 3

    def test_exists_honors_external_cancel(self):
        g = erdos_renyi(40, 0.3, seed=19)  # triangles definitely exist
        cancelled = ExplorationControl()
        cancelled.stop()
        assert not MiningSession(g).exists(
            generate_clique(3), control=cancelled
        )
        # The session-default control is an external cancel token too.
        session = MiningSession(g, control=cancelled)
        assert not session.exists(generate_clique(3))
        # A successful probe must not fire the caller's shared token.
        live = ExplorationControl()
        assert MiningSession(g).exists(generate_clique(3), control=live)
        assert not live.stopped

    def test_exists_matches_reference_and_stops(self):
        g = erdos_renyi(40, 0.3, seed=14)  # above the batched crossover
        session = MiningSession(g)
        assert session.exists(generate_clique(3)) == exists(
            g, generate_clique(3), engine="reference"
        )
        assert not session.exists(generate_clique(8))

    def test_aggregate_threshold_stop(self):
        g = erdos_renyi(40, 0.3, seed=15)
        session = MiningSession(g)
        control = ExplorationControl()

        def stop_at_ten(agg):
            if (agg.get("triangles") or 0) >= 10:
                control.stop()

        agg = session.aggregate(
            generate_clique(3),
            lambda m: ("triangles", 1),
            on_update=stop_at_ten,
            interval=0.0005,
            control=control,
        )
        full = count(g, generate_clique(3))
        assert 0 < agg["triangles"] <= full


# ----------------------------------------------------------------------
# Deprecation-shim stability: the legacy surface must not drift
# ----------------------------------------------------------------------

LEGACY_SIGNATURES = {
    "match": (
        "graph", "pattern", "callback", "edge_induced", "symmetry_breaking",
        "control", "stats", "timer", "plan", "start_vertices", "label_index",
        "engine", "frontier_chunk",
    ),
    "count": (
        "graph", "pattern", "edge_induced", "symmetry_breaking", "stats",
        "timer", "plan", "engine", "frontier_chunk",
    ),
    "count_many": (
        "graph", "patterns", "edge_induced", "symmetry_breaking", "engine",
    ),
    "exists": ("graph", "pattern", "edge_induced", "engine"),
    "match_batches": (
        "graph", "pattern", "on_batch", "edge_induced", "symmetry_breaking",
        "plan", "label_index", "engine", "frontier_chunk",
    ),
}


class TestLegacyShims:
    @pytest.mark.parametrize("name", sorted(LEGACY_SIGNATURES))
    def test_signatures_unchanged(self, name):
        fn = getattr(api_module, name)
        params = tuple(inspect.signature(fn).parameters)
        assert params == LEGACY_SIGNATURES[name]

    def test_legacy_defaults_unchanged(self):
        sig = inspect.signature(api_module.match)
        assert sig.parameters["edge_induced"].default is True
        assert sig.parameters["symmetry_breaking"].default is True
        assert sig.parameters["engine"].default == "auto"
        assert sig.parameters["label_index"].default is True

    def test_precomputed_plan_still_honored(self):
        from repro.core import generate_plan

        g = erdos_renyi(30, 0.25, seed=16)
        p = generate_clique(3)
        plan = generate_plan(p)
        assert count(g, p, plan=plan) == count(g, p)


# ----------------------------------------------------------------------
# Every query is a workload: a single-pattern verb is its many-verb of
# one element, and every verb stages exactly once
# ----------------------------------------------------------------------


def _anti_edge_square() -> Pattern:
    p = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    p.add_anti_edge(0, 2)
    return p


WORKLOAD_PATTERNS = {
    "clique3": lambda: generate_clique(3),
    "chain4": lambda: generate_chain(4),
    "anti-edge-square": _anti_edge_square,
    "labeled-chain": lambda: _labeled(generate_chain(3), {0: 0, 2: 1}),
    "labeled-top": lambda: _labeled(generate_clique(3), {0: 1, 1: 1, 2: 1}),
}

workload_cases = given(
    name=st.sampled_from(sorted(WORKLOAD_PATTERNS)),
    seed=st.integers(min_value=0, max_value=50),
    engine=st.sampled_from(["accel-batch", "reference"]),
    edge_induced=st.booleans(),
)


def _workload_case(name, seed, n=32):
    graph = with_random_labels(erdos_renyi(n, 0.25, seed=seed), 2, seed=seed)
    return MiningSession(graph), WORKLOAD_PATTERNS[name]()


class TestWorkloadOfOne:
    @workload_cases
    @settings(max_examples=25, deadline=None)
    def test_exact_verbs_equal_their_many_verb_of_one(
        self, name, seed, engine, edge_induced
    ):
        session, p = _workload_case(name, seed)
        flags = {"engine": engine, "edge_induced": edge_induced}
        total = session.count(p, **flags)
        assert type(total) is int
        assert session.count_many([p], **flags) == {p: total}
        assert session.exists(p, **flags) == (total > 0)

        one, many = [], []
        assert session.match(p, lambda m: one.append(m.mapping), **flags) == total
        assert session.match_many(
            [p], [lambda m: many.append(m.mapping)], **flags
        ) == [total]
        assert one == many  # the callback *sequence*

        rows_one, rows_many = [], []
        session.match_batches(
            p, lambda a: rows_one.extend(map(tuple, a.tolist())), **flags
        )
        session.match_batches_many(
            [p], [lambda a: rows_many.extend(map(tuple, a.tolist()))], **flags
        )
        assert sorted(rows_one) == sorted(rows_many) == sorted(one)

    @workload_cases
    @settings(max_examples=25, deadline=None)
    def test_estimates_and_partials_equal_field_for_field(
        self, name, seed, engine, edge_induced
    ):
        from repro.core.callbacks import Budget
        from repro.errors import PartialResult
        from repro.mining.sampling import ApproxCount

        session, p = _workload_case(name, seed, n=90)
        flags = {"engine": engine, "edge_induced": edge_induced}
        knobs = {"approx": 0.2, "seed": seed, "max_samples": 40, **flags}
        estimate = session.count(p, **knobs)
        assert isinstance(estimate, ApproxCount)
        assert session.count_many([p], **knobs) == {p: estimate}

        budget = {"budget": Budget(max_frontier_rows=1), "on_budget": "partial"}
        cut = session.count(p, **budget, **flags)
        [many] = session.count_many([p], **budget, **flags).values()
        for partial in (cut, many):
            assert type(partial) is PartialResult and partial.truncated
        assert (int(cut), cut.reason, cut.levels_completed, cut.detail) == (
            int(many), many.reason, many.levels_completed, many.detail
        )

    @pytest.mark.parametrize("engine", ["accel-batch", "reference"])
    def test_refusal_and_fused_pin_raise_alike(self, engine, monkeypatch):
        from repro.errors import QueryRefusedError
        from repro.runtime import guards

        session, p = _workload_case("clique3", 3)
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        for run in (
            lambda **o: session.count(p, **o),
            lambda **o: session.count_many([p], **o),
            lambda **o: session.match(p, lambda m: None, **o),
            lambda **o: session.match_many([p], [lambda m: None], **o),
        ):
            with pytest.raises(QueryRefusedError, match="refused"):
                run(guard="refuse", engine=engine)
        # "fused" names the multi-pattern runner: the single verbs
        # reject it as a bad value, the many-verbs of one accept it.
        for verb in (
            lambda: session.count(p, engine="fused"),
            lambda: session.match(p, engine="fused"),
            lambda: session.exists(p, engine="fused"),
            lambda: session.match_batches(p, lambda a: None, engine="fused"),
        ):
            with pytest.raises(ValueError, match="engine must be one of"):
                verb()
        monkeypatch.undo()
        assert session.count_many([p], engine="fused") == {
            p: session.count(p, engine=engine)
        }


def _count_stages(monkeypatch) -> list:
    calls = []
    real = MiningSession._stage

    def spy(self, patterns, *args, **kwargs):
        calls.append(list(patterns))
        return real(self, patterns, *args, **kwargs)

    monkeypatch.setattr(MiningSession, "_stage", spy)
    return calls


class TestOneStagePerVerb:
    def test_every_session_verb_stages_once(self, monkeypatch):
        g = with_random_labels(erdos_renyi(40, 0.25, seed=2), 2, seed=2)
        session = MiningSession(g)
        p, q = generate_clique(3), generate_chain(3)
        # label-pinned: its frontier differs, so under engine="auto" it
        # runs outside any fused group
        single = WORKLOAD_PATTERNS["labeled-top"]()
        multi = session.options(engine="auto")
        staged = session._stage([p, q, single], multi)
        assert staged.opts.engine == "fused"
        from repro.core.session import MultiPatternPlan

        compiled = MultiPatternPlan.build(
            session, staged.patterns, staged.plans, staged.opts
        )
        assert compiled.singles == (2,)

        calls = _count_stages(monkeypatch)
        verbs = [
            lambda: session.count(p),
            lambda: session.count(p, approx=0.2, seed=1),
            lambda: session.match(p, lambda m: None),
            lambda: session.exists(p),
            lambda: session.match_batches(p, lambda a: None),
            lambda: session.count_many([p, q, single]),
            lambda: session.count_many([p, q, single], approx=0.2, seed=1),
            lambda: session.match_many([p, q, single], [None] * 3),
            lambda: session.match_batches_many(
                [p, q, single], [lambda a: None] * 3
            ),
            lambda: session.aggregate([p, q, single], lambda m: ("n", 1)),
        ]
        for verb in verbs:
            del calls[:]
            verb()
            assert len(calls) == 1

    @pytest.mark.parametrize("k", [1, 3])
    def test_a_service_batch_of_k_stages_k_plus_one(self, k, monkeypatch):
        from repro.service.batching import QueryJob, _run_batch

        g = erdos_renyi(40, 0.25, seed=2)
        session = MiningSession(g)
        patterns = [generate_clique(3), generate_chain(3), generate_star(3)][:k]
        expected = [session.count(p) for p in patterns]
        calls = _count_stages(monkeypatch)
        outcomes, _ = _run_batch(
            session, [QueryJob("count", p) for p in patterns]
        )
        assert [o.count for o in outcomes] == expected
        # each member's own admission, then the one shared walk
        assert [len(c) for c in calls] == [1] * k + [k]


class TestProbeCache:
    @pytest.mark.parametrize("symmetry_breaking", [True, False])
    def test_probes_are_cached_by_what_the_probe_reads(
        self, symmetry_breaking, monkeypatch
    ):
        """An FSM run probes once per distinct ``(width, frontier key,
        symmetry_breaking)`` — not once per pattern — and every pattern
        still gets the estimate its own standalone probe measures."""
        from repro.mining import fsm
        from repro.runtime import guards

        g = with_random_labels(erdos_renyi(60, 0.15, seed=4), 3, seed=4)
        session = MiningSession(g)
        staged = _count_stages(monkeypatch)
        probes = []
        real = guards.probe

        def spy(*args, **kwargs):
            probes.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(guards, "probe", spy)
        fsm(session, 3, threshold=2, symmetry_breaking=symmetry_breaking)
        patterns = {p for workload in staged for p in workload}
        triples = {
            (
                p.num_vertices,
                session._frontier_key(
                    session.plan_for(p, symmetry_breaking=symmetry_breaking)
                ),
                symmetry_breaking,
            )
            for p in patterns
        }
        assert len(patterns) > len(triples) == len(probes)
        monkeypatch.undo()
        for p in patterns:
            opts = session.options(symmetry_breaking=symmetry_breaking)
            [cached] = session._estimates([p], opts)[1]
            assert cached == guards.estimate_cost(
                g, p, symmetry_breaking=symmetry_breaking
            )
