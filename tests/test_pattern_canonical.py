"""Tests for isomorphism, automorphisms and canonical codes."""

import random

from hypothesis import given, settings, strategies as st

from repro.pattern import (
    Pattern,
    are_isomorphic,
    automorphism_count,
    automorphisms,
    canonical_code,
    canonical_form,
    find_isomorphism,
    generate_chain,
    generate_clique,
    generate_cycle,
    generate_star,
    pattern_p7,
)
from repro.core.symmetry import orbit_partition
from repro.pattern import generate_all_edge_induced
from repro.pattern.canonical import (
    canonical_permutation,
    canonical_sweep,
    exists_automorphism,
)


class TestAutomorphisms:
    def test_known_groups(self):
        assert automorphism_count(generate_clique(4)) == 24
        assert automorphism_count(generate_cycle(4)) == 8
        assert automorphism_count(generate_cycle(5)) == 10
        assert automorphism_count(generate_star(4)) == 6
        assert automorphism_count(generate_chain(4)) == 2

    def test_identity_always_present(self):
        p = generate_chain(3)
        assert list(range(3)) in automorphisms(p)

    def test_labels_restrict_automorphisms(self):
        p = generate_clique(3)
        p.set_label(0, 1)
        p.set_label(1, 2)
        p.set_label(2, 3)
        assert automorphism_count(p) == 1

    def test_partial_labels(self):
        p = generate_clique(3)
        p.set_label(0, 1)  # vertex 0 pinned, 1 and 2 still swappable
        assert automorphism_count(p) == 2

    def test_anti_edges_are_second_color(self):
        # Square with one anti-diagonal: the anti-edge breaks the dihedral
        # group down to the symmetries fixing that diagonal pair.
        p = generate_cycle(4)
        p.add_anti_edge(0, 2)
        assert automorphism_count(p) == 4

    def test_anti_vertex_breaks_symmetry(self):
        # Triangle alone: |Aut| = 6.  With an anti-vertex attached to one
        # corner, only the swap of the other two corners survives.
        p = generate_clique(3)
        p.add_anti_vertex([0])
        assert automorphism_count(p) == 2

    def test_p7_fully_connected_anti_vertex_keeps_symmetry(self):
        assert automorphism_count(pattern_p7()) == 6


class TestIsomorphism:
    def test_relabeled_patterns_isomorphic(self):
        p = Pattern.from_edges([(0, 1), (1, 2), (2, 3)])
        q = Pattern.from_edges([(3, 2), (2, 1), (1, 0)])
        assert are_isomorphic(p, q)

    def test_non_isomorphic(self):
        assert not are_isomorphic(generate_star(4), generate_chain(4))

    def test_mapping_is_valid(self):
        p = generate_cycle(5)
        q = Pattern.from_edges([(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        mapping = find_isomorphism(p, q)
        assert mapping is not None
        for u, v in p.edges():
            assert q.are_connected(mapping[u], mapping[v])

    def test_labels_must_match(self):
        p = Pattern.from_edges([(0, 1)])
        p.set_label(0, 1)
        q = Pattern.from_edges([(0, 1)])
        q.set_label(0, 2)
        assert not are_isomorphic(p, q)

    def test_anti_edges_must_match(self):
        p = Pattern.from_edges([(0, 1), (1, 2)])
        q = Pattern.from_edges([(0, 1), (1, 2)], anti_edges=[(0, 2)])
        assert not are_isomorphic(p, q)


class TestCanonicalCode:
    def test_code_equal_iff_isomorphic(self):
        p = Pattern.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        q = Pattern.from_edges([(3, 1), (1, 0), (3, 0), (0, 2)])
        assert canonical_code(p) == canonical_code(q)
        r = generate_star(4)
        assert canonical_code(p) != canonical_code(r)

    def test_canonical_form_isomorphic_to_original(self):
        p = Pattern.from_edges([(0, 2), (2, 1), (1, 3)], anti_edges=[(0, 3)])
        p.set_label(2, 9)
        q = canonical_form(p)
        assert are_isomorphic(p, q)
        assert canonical_code(q) == canonical_code(p)

    def test_canonical_permutation_places_vertices(self):
        p = Pattern.from_edges([(0, 1), (1, 2)])
        p.set_label(0, 5)
        code, order = canonical_permutation(p)
        assert sorted(order) == [0, 1, 2]
        assert code == canonical_code(p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_code_invariant_under_random_relabeling(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        ]
        if not edges:
            edges = [(0, 1)]
        p = Pattern(num_vertices=n, edges=edges)
        perm = list(range(n))
        rng.shuffle(perm)
        q = Pattern(
            num_vertices=n, edges=[(perm[u], perm[v]) for u, v in edges]
        )
        assert canonical_code(p) == canonical_code(q)

    def test_empty_pattern_code(self):
        assert canonical_code(Pattern()) == (0, (), ())

    def test_minus_one_is_a_label_not_the_wildcard(self):
        bare = Pattern.from_edges([(0, 1)])
        p = Pattern.from_edges([(0, 1)])
        p.set_label(0, -1)
        assert canonical_code(p) != canonical_code(bare)
        assert not are_isomorphic(p, bare)
        assert sorted(canonical_form(p).labels().values()) == [-1]
        assert automorphism_count(p) == 1


def _orbits_by_automorphism_search(p: Pattern) -> list[list[int]]:
    """The pre-sweep ``orbit_partition``: one witness search per pair."""
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for u in range(p.num_vertices):
        if u in seen:
            continue
        orbit = [u]
        for v in range(u + 1, p.num_vertices):
            if v not in seen and exists_automorphism(p, {u: v}):
                orbit.append(v)
        orbits.append(orbit)
        seen.update(orbit)
    return orbits


class TestCanonicalSweep:
    def test_projections_agree_on_decorated_patterns(self):
        """Code, order and orbits of one sweep are mutually consistent."""
        rng = random.Random(19)
        for k in range(1, 6):
            for base in generate_all_edge_induced(k):
                for _ in range(4):
                    p = base.copy()
                    n = p.num_vertices
                    for u in range(n):
                        if rng.random() < 0.5:
                            p.set_label(u, rng.choice([-1, 0, 3, 10**6]))
                    for u in range(n):
                        for v in range(u + 1, n):
                            if not p.are_connected(u, v) and rng.random() < 0.2:
                                p.add_anti_edge(u, v)
                    code, order, orbits = canonical_sweep(p)
                    # Orbits are over canonical positions; orbit_partition
                    # maps them back onto p's own vertices.
                    form = canonical_form(p)
                    assert orbits == _orbits_by_automorphism_search(form), repr(p)
                    assert orbit_partition(p) == _orbits_by_automorphism_search(p)
                    assert canonical_permutation(p) == (code, order)
                    assert canonical_code(p) == code
                    position = {v: i for i, v in enumerate(order)}
                    relabeled = Pattern(
                        num_vertices=n,
                        edges=[(position[u], position[v]) for u, v in p.edges()],
                        anti_edges=[
                            (position[u], position[v]) for u, v in p.anti_edges()
                        ],
                        labels={position[u]: lab for u, lab in p.labels().items()},
                    )
                    assert relabeled == canonical_form(p), repr(p)
