"""Tests for frequent subgraph mining (MNI support, label discovery)."""

import random
from itertools import permutations

from hypothesis import example, given, settings, strategies as st

from repro.bitmap import RoaringBitmap
from repro.graph import DataGraph, from_edges, mico_like, with_random_labels, erdos_renyi
from repro.mining import fsm
from repro.pattern import Pattern, canonical_code
from repro.testing.oracles import brute_force_fsm, nx_labeled_isomorphic


def brute_force_mni(graph: DataGraph, p: Pattern) -> int:
    """Oracle MNI: enumerate ALL labeled monomorphisms, build full domains."""
    n = p.num_vertices
    domains = [set() for _ in range(n)]
    for assignment in permutations(range(graph.num_vertices), n):
        ok = all(
            graph.has_edge(assignment[u], assignment[v]) for u, v in p.edges()
        )
        if ok:
            for u in range(n):
                want = p.label_of(u)
                if want is not None and graph.label(assignment[u]) != want:
                    ok = False
                    break
        if ok:
            for u in range(n):
                domains[u].add(assignment[u])
    return min(len(d) for d in domains) if domains else 0


class TestSingleEdgeRound:
    def test_supports_match_brute_force(self):
        g = from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            labels=[1, 2, 1, 2, 1][:4],
        )
        result = fsm(g, num_edges=1, threshold=1)
        for pattern, support in result.frequent.items():
            assert support == brute_force_mni(g, pattern), repr(pattern)

    def test_threshold_filters(self):
        g = with_random_labels(erdos_renyi(25, 0.2, seed=1), 3, seed=2)
        low = fsm(g, 1, threshold=1)
        high = fsm(g, 1, threshold=10)
        assert set(high.frequent) <= set(low.frequent)


class TestMultiRound:
    def test_two_edge_supports_vs_brute_force(self):
        g = with_random_labels(erdos_renyi(14, 0.3, seed=3), 2, seed=4)
        result = fsm(g, num_edges=2, threshold=2)
        for pattern, support in result.frequent.items():
            assert support == brute_force_mni(g, pattern), repr(pattern)

    def test_completeness_two_edges(self):
        """Every frequent 2-edge labeled pattern is found (Apriori safety)."""
        g = with_random_labels(erdos_renyi(14, 0.3, seed=5), 2, seed=6)
        threshold = 2
        result = fsm(g, num_edges=2, threshold=threshold)
        found_codes = {canonical_code(p) for p in result.frequent}
        # Brute-force: every labeled wedge pattern over 2 labels.
        from repro.pattern import generate_chain

        for la in range(2):
            for lb in range(2):
                for lc in range(2):
                    p = generate_chain(3)
                    p.set_label(0, la)
                    p.set_label(1, lb)
                    p.set_label(2, lc)
                    if brute_force_mni(g, p) >= threshold:
                        assert canonical_code(p) in found_codes

    def test_anti_monotonicity_recorded_rounds(self):
        g = mico_like(0.2)
        result = fsm(g, num_edges=3, threshold=3)
        assert set(result.frequent_by_size) <= {1, 2, 3}
        # Supports never increase as patterns grow (anti-monotone).
        if result.frequent_by_size.get(2) and result.frequent_by_size.get(1):
            max1 = max(result.frequent_by_size[1].values())
            max2 = max(result.frequent_by_size[2].values(), default=0)
            assert max2 <= max1


class TestSymmetryBreakingAblation:
    def test_same_results_both_modes(self):
        g = mico_like(0.15)
        aware = fsm(g, 2, 3)
        unaware = fsm(g, 2, 3, symmetry_breaking=False)
        aware_set = {
            (canonical_code(p), s) for p, s in aware.frequent.items()
        }
        unaware_set = {
            (canonical_code(p), s) for p, s in unaware.frequent.items()
        }
        assert aware_set == unaware_set

    def test_unaware_writes_at_least_as_many(self):
        g = mico_like(0.15)
        aware = fsm(g, 2, 3)
        unaware = fsm(g, 2, 3, symmetry_breaking=False)
        assert unaware.domain_writes >= aware.domain_writes


class TestEngineParity:
    def test_engine_knob_parity(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=33), 3, seed=11)
        results = {
            engine: fsm(g, 2, 2, engine=engine)
            for engine in ("auto", "accel-batch", "reference")
        }
        baseline = {
            (canonical_code(p), s)
            for p, s in results["reference"].frequent.items()
        }
        for engine, result in results.items():
            got = {(canonical_code(p), s) for p, s in result.frequent.items()}
            assert got == baseline, engine


class TestResultShape:
    def test_metadata(self):
        g = mico_like(0.1)
        result = fsm(g, 2, 2)
        assert result.threshold == 2
        assert result.num_edges == 2
        assert result.patterns_explored >= 1
        assert result.total_frequent() == len(result.frequent)
        assert result.domain_bytes >= 0

    def test_empty_round_stops_early(self):
        g = with_random_labels(erdos_renyi(10, 0.1, seed=7), 5, seed=8)
        result = fsm(g, 3, threshold=50)
        assert result.frequent == {}


# Alphabets for the oracle fuzz: "common" labels share the vertices,
# each "rare" label sits on one vertex only (fewer than any threshold
# here, so the label filter fires in round 1 and the pair filter later).
_ALPHABETS = [
    ([0, 1], [7]),
    ([-1, 0], [10**6]),  # -1 is a label, not the wildcard
    ([5, 10**6, 2 * 10**6], []),  # sparse ids
    ([3], [4, 9]),
    None,  # unlabeled graph: the one-label case of the same sink
]


def _fuzz_graph(seed: int, alphabet) -> DataGraph:
    rng = random.Random(seed)
    base = erdos_renyi(rng.randint(9, 12), rng.choice([0.35, 0.5]), seed=seed)
    if alphabet is None:
        return base
    common, rare = alphabet
    labels = [rng.choice(common) for _ in base.vertices()]
    for lab, v in zip(rare, rng.sample(range(base.num_vertices), len(rare))):
        labels[v] = lab
    return DataGraph([base.neighbors(v) for v in base.vertices()], labels)


def _assert_same_frequent(got: dict, want: dict, context) -> None:
    """``got`` and ``want`` hold the same patterns up to isomorphism."""
    assert len(got) == len(want), context
    unmatched = dict(want)
    for pattern, support in got.items():
        twin = next(
            (q for q in unmatched if nx_labeled_isomorphic(pattern, q)), None
        )
        assert twin is not None, (context, pattern)
        assert unmatched.pop(twin) == support, (context, pattern)


class TestCompletenessOracle:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        alphabet=st.sampled_from(_ALPHABETS),
        threshold=st.sampled_from([2, 3]),
        factory=st.sampled_from([None, RoaringBitmap]),
        engine=st.sampled_from(["auto", "reference"]),
    )
    @example(seed=1, alphabet=None, threshold=2, factory=None, engine="auto")
    @example(seed=2, alphabet=_ALPHABETS[1], threshold=2, factory=RoaringBitmap, engine="reference")
    @settings(max_examples=20, deadline=None)
    def test_frequent_sets_match_brute_force(
        self, seed, alphabet, threshold, factory, engine
    ):
        g = _fuzz_graph(seed, alphabet)
        want = brute_force_fsm(g, 3, threshold)
        for symmetry_breaking in (True, False):
            result = fsm(
                g,
                3,
                threshold,
                symmetry_breaking=symmetry_breaking,
                bitset_factory=factory,
                engine=engine,
            )
            for size in (1, 2, 3):
                _assert_same_frequent(
                    result.frequent_by_size.get(size, {}),
                    want[size],
                    (size, symmetry_breaking),
                )


class TestNegativeLabels:
    def test_minus_one_labelled_graph_equals_its_shifted_twin(self):
        base = erdos_renyi(30, 0.2, seed=13)
        adjacency = [base.neighbors(v) for v in base.vertices()]
        low = DataGraph(adjacency, [(v % 3) - 1 for v in base.vertices()])
        twin = DataGraph(adjacency, [v % 3 for v in base.vertices()])
        got, want = fsm(low, 3, 2), fsm(twin, 3, 2)
        assert set(got.frequent_by_size) == set(want.frequent_by_size) == {1, 2, 3}
        for size, frequent in want.frequent_by_size.items():
            shifted = {}
            for p, support in got.frequent_by_size[size].items():
                assert p.is_fully_labeled, p
                q = p.copy()
                for u, lab in p.labels().items():
                    q.set_label(u, lab + 1)
                shifted[canonical_code(q)] = support
            assert shifted == {
                canonical_code(p): s for p, s in frequent.items()
            }, size
