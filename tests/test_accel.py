"""Tests for the CSR graph view and the frontier-batched engine.

Every feature of the pattern matrix — labels, vertex-induced matching,
anti-edges, anti-vertices, callbacks — is parity-fuzzed against the
reference engine (``engine="reference"`` forces it; a bare ``count``
would auto-dispatch right back to the batched engine) and, where cheap
enough, against the networkx oracles.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import count, generate_plan, match, match_batches
from repro.core.callbacks import ExplorationControl
from repro.core.accel import (
    AcceleratedGraphView,
    FrontierBatchedEngine,
    _compile_steps,
    frontier_start_order,
    shared_view,
)
from repro.core.engine import EngineStats
from repro.core.session import MiningSession
from repro.errors import MatchingError
from repro.graph import barabasi_albert, erdos_renyi, with_random_labels
from repro.mining.cliques import maximal_clique_pattern
from repro.pattern import (
    Pattern,
    generate_chain,
    generate_clique,
    generate_cycle,
    generate_star,
)
from repro.pattern.evaluation import pattern_p1, pattern_p3, pattern_p4
from repro.pattern.generators import generate_all_vertex_induced
from repro.runtime import process_count_many
from repro.testing.oracles import nx_count_edge_induced, nx_count_vertex_induced

def reference_count(graph, pattern, **kwargs):
    return count(graph, pattern, engine="reference", **kwargs)


def batched_count(graph, pattern, **kwargs):
    return count(graph, pattern, engine="accel-batch", **kwargs)


# ----------------------------------------------------------------------
# Graph view
# ----------------------------------------------------------------------


class TestAcceleratedGraphView:
    def test_neighbors_agree_with_graph(self):
        g = erdos_renyi(50, 0.2, seed=4)
        view = AcceleratedGraphView(g)
        for v in g.vertices():
            assert view.neighbors(v).tolist() == g.neighbors(v).tolist()

    def test_memory_accounting(self):
        g = erdos_renyi(50, 0.2, seed=4)
        view = AcceleratedGraphView(g)
        assert view.memory_bytes() >= 8 * 2 * g.num_edges

    def test_label_partition(self):
        g = with_random_labels(erdos_renyi(40, 0.2, seed=9), 3, seed=5)
        view = AcceleratedGraphView(g)
        seen = []
        for lab in range(3):
            arr = view.vertices_with_label(lab)
            assert arr.tolist() == sorted(
                v for v in g.vertices() if g.label(v) == lab
            )
            seen.extend(arr.tolist())
        assert sorted(seen) == list(g.vertices())
        assert view.vertices_with_label(99).size == 0

    def test_unlabeled_partition_empty(self):
        g = erdos_renyi(10, 0.3, seed=1)
        view = AcceleratedGraphView(g)
        assert view.labels is None
        assert view.vertices_with_label(0).size == 0

    def test_shared_view_cached(self):
        g = erdos_renyi(20, 0.3, seed=8)
        ordered, _ = g.degree_ordered()
        assert shared_view(ordered) is shared_view(ordered)


# ----------------------------------------------------------------------
# Batched counting == reference engine (unlabeled, edge-induced)
# ----------------------------------------------------------------------


class TestFrontierCount:
    @pytest.mark.parametrize(
        "pattern_fn",
        [
            lambda: generate_clique(3),
            lambda: generate_clique(4),
            lambda: generate_chain(4),
            lambda: generate_star(4),
            lambda: Pattern.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]),
            lambda: Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]),
        ],
    )
    def test_agrees_with_reference(self, pattern_fn):
        g = barabasi_albert(300, 5, seed=9)
        p = pattern_fn()
        assert batched_count(g, p) == reference_count(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_graph_triangles(self, seed):
        g = erdos_renyi(40, 0.25, seed=seed)
        assert batched_count(g, generate_clique(3)) == reference_count(
            g, generate_clique(3)
        )

    def test_single_edge_pattern(self):
        g = erdos_renyi(30, 0.2, seed=2)
        assert batched_count(g, Pattern.from_edges([(0, 1)])) == g.num_edges

    def test_rejects_labeled_pattern_on_unlabeled_graph(self):
        g = erdos_renyi(20, 0.3, seed=1)
        p = Pattern.from_edges([(0, 1)])
        p.set_label(0, 1)
        with pytest.raises(MatchingError):
            batched_count(g, p)


# ----------------------------------------------------------------------
# Parity: anti-edges and anti-vertices
# ----------------------------------------------------------------------


class TestAntiConstraintParity:
    def test_chain_with_anti_edge(self):
        g = erdos_renyi(40, 0.25, seed=1)
        p = generate_chain(3)
        p.add_anti_edge(0, 2)
        assert batched_count(g, p) == reference_count(g, p)

    def test_square_with_anti_diagonals(self):
        g = erdos_renyi(35, 0.3, seed=13)
        p = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        p.add_anti_edge(0, 2)
        p.add_anti_edge(1, 3)
        assert batched_count(g, p) == reference_count(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_fuzz_anti_edge_paths(self, seed):
        g = erdos_renyi(30, 0.25, seed=seed)
        p = generate_chain(4)
        p.add_anti_edge(0, 3)
        assert batched_count(g, p) == reference_count(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_fuzz_maximal_cliques(self, seed):
        g = erdos_renyi(30, 0.3, seed=seed)
        p = maximal_clique_pattern(3)
        assert batched_count(g, p) == reference_count(g, p)

    def test_anti_vertex_star(self):
        g = erdos_renyi(40, 0.2, seed=21)
        p = generate_star(3)
        p.add_anti_vertex([0, 1])
        assert batched_count(g, p) == reference_count(g, p)


# ----------------------------------------------------------------------
# Parity: vertex-induced matching (Theorem 3.1 closure)
# ----------------------------------------------------------------------


class TestVertexInducedParity:
    @pytest.mark.parametrize(
        "pattern_fn",
        [
            lambda: generate_chain(3),
            lambda: generate_chain(4),
            lambda: generate_star(4),
            lambda: Pattern.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]),
            lambda: Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]),
        ],
    )
    def test_agrees_with_reference_and_oracle(self, pattern_fn):
        g = erdos_renyi(30, 0.25, seed=17)
        p = pattern_fn()
        got = batched_count(g, p, edge_induced=False)
        assert got == reference_count(g, p, edge_induced=False)
        assert got == nx_count_vertex_induced(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_fuzz_vertex_induced_wedges(self, seed):
        g = erdos_renyi(30, 0.3, seed=seed)
        p = generate_star(3)
        assert batched_count(g, p, edge_induced=False) == reference_count(
            g, p, edge_induced=False
        )


# ----------------------------------------------------------------------
# Parity: labeled patterns
# ----------------------------------------------------------------------


def _labeled_pattern(structural: Pattern, labels: dict[int, int]) -> Pattern:
    p = structural.copy()
    for u, lab in labels.items():
        p.set_label(u, lab)
    return p


class TestLabeledParity:
    @pytest.mark.parametrize(
        "labels",
        [
            {0: 0},  # partially labeled
            {0: 0, 1: 1},
            {0: 0, 1: 1, 2: 2},  # fully labeled
            {0: 1, 1: 1, 2: 1},  # repeated labels keep symmetry orders
        ],
    )
    def test_labeled_triangle(self, labels):
        g = with_random_labels(erdos_renyi(40, 0.25, seed=7), 3, seed=1)
        p = _labeled_pattern(generate_clique(3), labels)
        assert batched_count(g, p) == reference_count(g, p)

    @pytest.mark.parametrize(
        "labels",
        [{0: 0, 1: 1, 2: 0}, {1: 2}, {0: 3, 2: 3}],
    )
    def test_labeled_chain(self, labels):
        g = with_random_labels(erdos_renyi(40, 0.2, seed=11), 4, seed=2)
        p = _labeled_pattern(generate_chain(3), labels)
        assert batched_count(g, p) == reference_count(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_fuzz_labeled_stars(self, seed):
        g = with_random_labels(erdos_renyi(35, 0.2, seed=seed), 3, seed=seed)
        p = _labeled_pattern(generate_star(3), {0: seed % 3, 2: (seed + 1) % 3})
        assert batched_count(g, p) == reference_count(g, p)

    def test_labeled_vertex_induced_combination(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=19), 3, seed=4)
        p = _labeled_pattern(generate_star(3), {0: 1, 1: 0, 2: 2})
        got = batched_count(g, p, edge_induced=False)
        assert got == reference_count(g, p, edge_induced=False)

    def test_label_absent_from_graph(self):
        g = with_random_labels(erdos_renyi(20, 0.3, seed=3), 2, seed=5)
        p = _labeled_pattern(generate_clique(3), {0: 7})
        assert batched_count(g, p) == 0 == reference_count(g, p)


# ----------------------------------------------------------------------
# Parity: callbacks (batched match materialization)
# ----------------------------------------------------------------------


def _collect_matches(graph, pattern, engine, **kwargs):
    found = []
    match(graph, pattern, callback=lambda m: found.append(m.mapping),
          engine=engine, **kwargs)
    return found


class TestCallbackParity:
    @pytest.mark.parametrize(
        "pattern_fn,kwargs",
        [
            (lambda: generate_clique(3), {}),
            (lambda: generate_chain(4), {}),
            (lambda: generate_star(3), {"edge_induced": False}),
            (lambda: maximal_clique_pattern(3), {}),
        ],
    )
    def test_same_matches_same_order(self, pattern_fn, kwargs):
        g = erdos_renyi(30, 0.25, seed=23)
        p = pattern_fn()
        batched = _collect_matches(g, p, "accel-batch", **kwargs)
        ref = _collect_matches(g, p, "reference", **kwargs)
        assert batched == ref

    def test_labeled_callback_matches(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=29), 3, seed=6)
        p = _labeled_pattern(generate_chain(3), {0: 0, 2: 1})
        assert _collect_matches(g, p, "accel-batch") == _collect_matches(
            g, p, "reference"
        )

    def test_callback_count_equals_count(self):
        g = erdos_renyi(40, 0.2, seed=31)
        p = generate_clique(3)
        assert len(_collect_matches(g, p, "accel-batch")) == count(g, p)


# ----------------------------------------------------------------------
# Frontier-batched engine: parity across the full feature matrix
# ----------------------------------------------------------------------

# Chunk sizes stress the frontier splitter: 1 (every partial alone, the
# worst case for ordering bugs), 2 (splits at odd boundaries), and None
# ("all": the default chunk swallows these graphs whole).
CHUNKS = (1, 2, None)


def _feature_matrix():
    """(name, pattern factory, match kwargs) across every feature class."""
    def anti_square():
        p = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        p.add_anti_edge(0, 2)
        p.add_anti_edge(1, 3)
        return p

    def anti_chain():
        p = generate_chain(4)
        p.add_anti_edge(0, 3)
        return p

    def anti_vertex_star():
        p = generate_star(3)
        p.add_anti_vertex([0, 1])
        return p

    def labeled_chain():
        return _labeled_pattern(generate_chain(3), {0: 0, 2: 1})

    def labeled_triangle():
        return _labeled_pattern(generate_clique(3), {0: 0, 1: 1, 2: 2})

    def anti_edge_leaves():
        p = generate_star(4)
        p.add_anti_edge(1, 2)
        return p

    def labeled_star_leaves():
        return _labeled_pattern(generate_star(4), {1: 0, 2: 0})

    def labeled_chain5():
        return _labeled_pattern(generate_chain(5), {1: 0, 3: 1})

    return [
        ("clique3", lambda: generate_clique(3), {}),
        ("clique4", lambda: generate_clique(4), {}),
        # single-vertex cores exercise the vectorized tail count; the
        # 4-path's two leaves are the linked tail shape
        ("chain4-single-core", lambda: generate_chain(4), {}),
        ("star4-single-core", lambda: generate_star(4), {}),
        ("tailed-triangle", lambda: Pattern.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)]), {}),
        ("square", lambda: Pattern.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)]), {}),
        ("vertex-induced-star", lambda: generate_star(3),
         {"edge_induced": False}),
        ("vertex-induced-chain", lambda: generate_chain(4),
         {"edge_induced": False}),
        ("anti-edge-chain", anti_chain, {}),
        ("anti-edge-square", anti_square, {}),
        ("anti-vertex-star", anti_vertex_star, {}),
        ("maximal-clique", lambda: maximal_clique_pattern(3), {}),
        ("labeled-chain", labeled_chain, {}),
        ("labeled-triangle", labeled_triangle, {}),
        ("no-symmetry-clique", lambda: generate_clique(3),
         {"symmetry_breaking": False}),
        # count-only tail program: one shared set, two unlinked steps,
        # two linked steps, and the shapes that fall back to enumeration
        ("star5-shared-tail", lambda: generate_star(5), {}),
        ("diamond-shared-tail", pattern_p1, {}),
        ("house-unlinked-tail", pattern_p3, {}),
        ("tailed-k4-unlinked-tail", pattern_p4, {}),
        ("no-symmetry-star", lambda: generate_star(4),
         {"symmetry_breaking": False}),
        ("anti-edge-leaves", anti_edge_leaves, {}),
        ("labeled-star-leaves", labeled_star_leaves, {}),
        # an ordered-core position with no later neighbour draws its
        # candidates from 0..bound-1, or from its label partition
        ("chain5-gap-position", lambda: generate_chain(5), {}),
        ("labeled-chain5-gap-position", labeled_chain5, {}),
    ]


FEATURE_MATRIX = _feature_matrix()


def _graph_for(name, seed):
    if name.startswith("labeled"):
        return with_random_labels(erdos_renyi(32, 0.25, seed=seed), 3, seed=seed)
    return erdos_renyi(32, 0.25, seed=seed)


class TestFrontierBatchedParity:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs",
        FEATURE_MATRIX,
        ids=[name for name, _, _ in FEATURE_MATRIX],
    )
    def test_counts_match_reference(self, name, pattern_fn, kwargs, chunk):
        g = _graph_for(name, seed=11)
        p = pattern_fn()
        got = count(g, p, engine="accel-batch", frontier_chunk=chunk, **kwargs)
        assert got == reference_count(g, p, **kwargs)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs",
        FEATURE_MATRIX,
        ids=[name for name, _, _ in FEATURE_MATRIX],
    )
    def test_callbacks_match_reference_in_order(
        self, name, pattern_fn, kwargs, chunk
    ):
        """Match *sequences* (not just multisets) are engine-independent."""
        g = _graph_for(name, seed=13)
        p = pattern_fn()
        batched = _collect_matches(
            g, p, "accel-batch", frontier_chunk=chunk, **kwargs
        )
        assert batched == _collect_matches(g, p, "reference", **kwargs)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_fuzz_counts_across_features(self, seed):
        g = erdos_renyi(28, 0.25, seed=seed)
        gl = with_random_labels(erdos_renyi(28, 0.25, seed=seed), 3, seed=seed)
        chunk = [1, 2, None][seed % 3]
        for name, pattern_fn, kwargs in FEATURE_MATRIX:
            graph = gl if name.startswith("labeled") else g
            p = pattern_fn()
            got = count(
                graph, p, engine="accel-batch", frontier_chunk=chunk, **kwargs
            )
            assert got == reference_count(graph, p, **kwargs), name

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_fuzz_callback_order(self, seed):
        g = erdos_renyi(24, 0.3, seed=seed)
        for pattern_fn in (
            lambda: generate_clique(3),
            lambda: generate_chain(4),
            lambda: maximal_clique_pattern(3),
        ):
            p = pattern_fn()
            batched = _collect_matches(
                g, p, "accel-batch", frontier_chunk=(seed % 3) or None
            )
            assert batched == _collect_matches(g, p, "reference")

    @pytest.mark.parametrize(
        "name,labeled",
        [("chain5-gap-position", False), ("labeled-chain5-gap-position", True)],
    )
    def test_gap_cases_keep_a_gap_position(self, name, labeled):
        """The gap cases' plans really have a core position with no later neighbour."""
        pattern_fn = {n: fn for n, fn, _ in FEATURE_MATRIX}[name]
        cores = _compile_steps(generate_plan(pattern_fn()))[0]
        gaps = [cset for sets in cores for cset in sets if not cset.nbr_cols]
        assert gaps
        assert all((cset.label is not None) == labeled for cset in gaps)

    def test_fusion_gathers_each_first_level_once_per_slice(self, monkeypatch):
        """Fused members sharing a first expansion share its one gather."""
        g = erdos_renyi(60, 0.2, seed=7)
        patterns = [generate_clique(3), generate_clique(4)]
        session = MiningSession(g)
        expected = session.count_many(patterns, engine="accel-batch")
        kernel = FrontierBatchedEngine._candidates
        gathered = []

        def spy(self, block, cset, geo, injective):
            if block.shape[1] == 1:
                gathered.append(tuple(block[:, 0].tolist()))
            return kernel(self, block, cset, geo, injective)

        monkeypatch.setattr(FrontierBatchedEngine, "_candidates", spy)
        fused = session.count_many(patterns, engine="fused", frontier_chunk=64)
        assert fused == expected
        # one gather per slice, not per member: no slice is gathered
        # twice, and the gathered slices partition the frontier
        assert len(gathered) == len(set(gathered)) > 1
        assert sorted(v for sl in gathered for v in sl) == list(
            range(g.num_vertices)
        )

    def test_count_with_callback_equals_count_only(self):
        g = erdos_renyi(40, 0.2, seed=19)
        p = generate_chain(3)  # single-vertex core: vectorized tail count
        assert count(g, p, engine="accel-batch") == len(
            _collect_matches(g, p, "accel-batch")
        )

    def test_rejects_labeled_pattern_on_unlabeled_graph(self):
        g = erdos_renyi(20, 0.3, seed=1)
        p = Pattern.from_edges([(0, 1)])
        p.set_label(0, 1)
        with pytest.raises(MatchingError):
            batched_count(g, p)

    def test_rejects_on_match_and_on_batch_together(self):
        g = erdos_renyi(20, 0.3, seed=2)
        ordered, _ = g.degree_ordered()
        engine = FrontierBatchedEngine(shared_view(ordered))
        with pytest.raises(ValueError):
            engine.run(
                generate_plan(generate_clique(3)),
                on_match=lambda m: None,
                on_batch=lambda arr: None,
            )

    def test_on_batch_rows_match_reference_multiset(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=23), 3, seed=5)
        p = _labeled_pattern(generate_chain(3), {0: 0})
        rows = []
        total = match_batches(g, p, lambda arr: rows.extend(
            tuple(r) for r in arr.tolist()
        ))
        ref = _collect_matches(g, p, "reference")
        assert total == len(ref)
        assert sorted(rows) == sorted(ref)


# ----------------------------------------------------------------------
# Count-only tail program: per-start parity, shapes, fused and process runs
# ----------------------------------------------------------------------


def _paw():
    return Pattern.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])


# pattern -> the tail program a default (edge-induced, symmetry-broken)
# plan compiles to: (kind, trailing steps counted from set sizes)
TAIL_PATTERNS = {
    "star4": (lambda: generate_star(4), ("shared", 3)),
    "star5": (lambda: generate_star(5), ("shared", 4)),
    "chain4": (lambda: generate_chain(4), ("linked", 2)),
    "chain5": (lambda: generate_chain(5), ("linked", 2)),
    "diamond": (pattern_p1, ("shared", 2)),
    "paw": (_paw, ("unlinked", 2)),
    "tailed-k4": (pattern_p4, ("unlinked", 2)),
    "house": (pattern_p3, ("unlinked", 2)),
    "cycle5": (lambda: generate_cycle(5), ("shared", 1)),
}


def _tail_of(pattern, **kwargs):
    plan = generate_plan(pattern, **kwargs)
    tail = _compile_steps(plan)[-1]
    return tail.kind, len(plan.noncore_steps) - tail.start


def _random_connected_pattern(rng: random.Random) -> Pattern:
    while True:
        k = rng.randint(4, 6)
        edges = [
            (u, v) for u in range(k) for v in range(u + 1, k)
            if rng.random() < 0.45
        ]
        if edges:
            p = Pattern.from_edges(edges)
            if p.num_vertices == k and p.is_connected():
                return p


def _assert_per_start_parity(session, pattern, chunks=CHUNKS, **kwargs):
    """Every start vertex alone: the batched count equals the interpreter's."""
    for v in range(session.graph.num_vertices):
        expected = session.count(
            pattern, engine="reference", start_vertices=[v], **kwargs
        )
        for chunk in chunks:
            got = session.count(
                pattern, engine="accel-batch", frontier_chunk=chunk,
                start_vertices=[v], **kwargs,
            )
            assert got == expected, (v, chunk)


class TestTailProgram:
    @pytest.fixture(scope="class")
    def session(self):
        return MiningSession(erdos_renyi(16, 0.4, seed=5))

    @pytest.mark.parametrize("name", sorted(TAIL_PATTERNS))
    def test_compiled_shapes(self, name):
        pattern_fn, shape = TAIL_PATTERNS[name]
        assert _tail_of(pattern_fn()) == shape

    def test_unbroken_symmetry_keeps_the_shared_set(self):
        # no symmetry bounds: k! orderings of one set, not enumeration
        assert _tail_of(generate_star(5), symmetry_breaking=False) == (
            "shared", 4
        )

    @pytest.mark.parametrize("symmetry_breaking", (True, False))
    @pytest.mark.parametrize("edge_induced", (True, False))
    @pytest.mark.parametrize("name", sorted(TAIL_PATTERNS))
    def test_per_start_counts_match_reference(
        self, session, name, edge_induced, symmetry_breaking
    ):
        _assert_per_start_parity(
            session, TAIL_PATTERNS[name][0](),
            edge_induced=edge_induced, symmetry_breaking=symmetry_breaking,
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_fuzz_random_patterns_per_start(self, seed):
        rng = random.Random(seed)
        pattern = _random_connected_pattern(rng)
        session = MiningSession(erdos_renyi(13, 0.4, seed=seed))
        _assert_per_start_parity(
            session, pattern, chunks=([1, 2, None][seed % 3],),
            edge_induced=rng.random() < 0.6,
            symmetry_breaking=rng.random() < 0.6,
        )

    def test_fall_back_shapes_stay_exact(self):
        """Labeled steps, anti-edges between tail steps and anti-vertices."""
        labeled = _labeled_pattern(generate_star(4), {1: 0, 2: 0})
        anti_leaves = generate_star(4)
        anti_leaves.add_anti_edge(1, 2)
        anti_vertex = generate_star(3)
        anti_vertex.add_anti_vertex([1, 2])
        assert _tail_of(labeled) == ("shared", 1)
        assert _tail_of(generate_star(4), edge_induced=False) == ("shared", 1)
        assert _tail_of(anti_leaves)[1] < 3
        plain = MiningSession(erdos_renyi(16, 0.4, seed=8))
        colored = MiningSession(
            with_random_labels(erdos_renyi(16, 0.4, seed=8), 2, seed=3)
        )
        _assert_per_start_parity(colored, labeled)
        _assert_per_start_parity(plain, anti_leaves)
        _assert_per_start_parity(plain, anti_vertex)

    def test_fused_process_and_census_tiers_agree(self):
        session = MiningSession(erdos_renyi(40, 0.2, seed=3))
        patterns = [fn() for fn, _ in TAIL_PATTERNS.values()]
        expected = {
            p: session.count(p, engine="reference") for p in patterns
        }
        assert session.count_many(patterns, engine="fused") == expected
        assert process_count_many(session, patterns, num_processes=2) == expected
        motifs = list(generate_all_vertex_induced(4))
        census = session.count_many(motifs, edge_induced=False)
        assert census == {
            m: session.count(m, edge_induced=False, engine="reference")
            for m in motifs
        }
        assert process_count_many(
            session, motifs, num_processes=2, edge_induced=False
        ) == census


class TestFrontierStartOrder:
    def test_unlabeled_is_hub_first(self):
        g = erdos_renyi(25, 0.2, seed=3)
        ordered, _ = g.degree_ordered()
        view = shared_view(ordered)
        starts = frontier_start_order(ordered)
        assert starts.tolist() == list(range(view.num_vertices - 1, -1, -1))

    def test_labeled_filters_to_top_labels(self):
        g = with_random_labels(erdos_renyi(40, 0.25, seed=5), 3, seed=7)
        ordered, _ = g.degree_ordered()
        view = shared_view(ordered)
        p = _labeled_pattern(generate_clique(3), {0: 1, 1: 1, 2: 1})
        plan = generate_plan(p)
        starts = frontier_start_order(ordered, plan.pinned_start_labels())
        assert starts.size > 0
        assert all(view.labels[v] == 1 for v in starts.tolist())
        # hub-first order is preserved within the filtered set
        assert starts.tolist() == sorted(starts.tolist(), reverse=True)

    def test_sliced_frontier_partitions_the_count(self):
        g = with_random_labels(erdos_renyi(50, 0.25, seed=9), 2, seed=11)
        ordered, _ = g.degree_ordered()
        view = shared_view(ordered)
        p = _labeled_pattern(generate_chain(3), {0: 0, 1: 1, 2: 0})
        plan = generate_plan(p)
        starts = frontier_start_order(ordered, plan.pinned_start_labels())
        total = FrontierBatchedEngine(view).run(plan, count_only=True)
        sliced = sum(
            FrontierBatchedEngine(view).run(
                plan, start_vertices=starts[off::3], count_only=True
            )
            for off in range(3)
        )
        assert sliced == total == reference_count(g, p)


# ----------------------------------------------------------------------
# Engine dispatch rules (repro.core.api)
# ----------------------------------------------------------------------


class TestDispatch:
    def test_auto_with_stats_uses_reference(self):
        g = erdos_renyi(30, 0.25, seed=37)
        stats = EngineStats()
        n = count(g, generate_clique(3), stats=stats)
        assert n == count(g, generate_clique(3))
        assert stats.partial_matches > 0  # reference engine ran

    def test_unknown_engine_rejected(self):
        g = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(ValueError):
            count(g, generate_clique(3), engine="warp-drive")

    def test_removed_per_match_engine_rejected(self):
        g = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(ValueError, match="accel-batch"):
            count(g, generate_clique(3), engine="accel")

    def test_planned_engine_follows_the_probed_frontier(self):
        from repro.runtime.planner import explain

        moderate = erdos_renyi(300, 0.05, seed=51)
        forest = erdos_renyi(300, 0.002, seed=51)
        # no density floor beyond near-forests, no core-size exclusion
        assert explain(moderate, generate_clique(3)).engine == "accel-batch"
        assert explain(moderate, generate_chain(3)).engine == "accel-batch"
        assert explain(forest, generate_clique(3)).engine == "reference"

    def test_force_accel_batch_with_stats_raises(self):
        g = erdos_renyi(20, 0.3, seed=1)
        with pytest.raises(MatchingError):
            count(g, generate_clique(3), stats=EngineStats(),
                  engine="accel-batch")

    def test_forced_batch_agrees_everywhere(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=41), 3, seed=7)
        p = _labeled_pattern(generate_star(3), {0: 1})
        assert count(g, p, engine="accel-batch") == count(
            g, p, engine="reference"
        )

    def test_batch_engine_runs_against_oracle(self):
        g = erdos_renyi(25, 0.3, seed=43)
        p = generate_chain(3)
        assert count(g, p, engine="accel-batch") == nx_count_edge_induced(g, p)


# ----------------------------------------------------------------------
# Controls on the batched engine (guardrail dispatch parity)
# ----------------------------------------------------------------------


class TestControlDispatch:
    """Control-bearing calls qualify for the batched engine.

    The engine polls the control cooperatively (per frontier block and
    emitted match), so a control must change neither dispatch nor —
    while it stays un-stopped — the matches or their order.
    """

    def test_control_does_not_change_dispatch(self):
        from repro.runtime.planner import explain

        g = erdos_renyi(300, 0.05, seed=51)
        for pattern in (generate_clique(3), generate_chain(3)):
            bare = explain(g, pattern).engine
            controlled = explain(
                g, pattern, control=ExplorationControl()
            ).engine
            assert controlled == bare == "accel-batch"

    def test_forced_engine_accepts_control(self):
        from repro.core.session import MiningSession

        g = erdos_renyi(30, 0.25, seed=23)
        p = generate_clique(3)
        session = MiningSession(g)
        n = session.count(p, engine="accel-batch", control=ExplorationControl())
        assert n == session.count(p, engine="reference")

    def test_callback_order_parity_with_control(self):
        g = erdos_renyi(30, 0.25, seed=23)
        p = generate_clique(3)
        ref = _collect_matches(g, p, "reference")
        batched = _collect_matches(
            g, p, "accel-batch", control=ExplorationControl()
        )
        assert batched == ref

    def test_stopped_control_terminates_batched_run_early(self):
        g = erdos_renyi(30, 0.25, seed=23)
        p = generate_clique(3)
        full = count(g, p, engine="reference")
        assert full > 1
        control = ExplorationControl()
        seen = []

        def stop_now(m):
            seen.append(m.mapping)
            control.stop()

        match(g, p, stop_now, control=control, engine="accel-batch")
        assert 1 <= len(seen) < full
