"""Tests for Bitset and MNI Domain (support computation)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.baselines import bfs_fsm
from repro.core import MiningSession, orbit_partition
from repro.graph import DataGraph, mico_like
from repro.mining import Bitset, Domain, fsm
from repro.pattern import canonical_code, generate_chain

values = st.lists(st.integers(min_value=0, max_value=500), max_size=50)


class TestBitset:
    @given(values)
    def test_membership_and_len(self, xs):
        b = Bitset(xs)
        assert len(b) == len(set(xs))
        for x in xs:
            assert x in b
        assert -1 not in b

    @given(values, values)
    def test_or_is_union(self, xs, ys):
        assert (Bitset(xs) | Bitset(ys)).to_list() == sorted(set(xs) | set(ys))

    @given(values, values)
    def test_and_is_intersection(self, xs, ys):
        assert (Bitset(xs) & Bitset(ys)).to_list() == sorted(set(xs) & set(ys))

    @given(values)
    def test_ior_in_place(self, xs):
        b = Bitset()
        b |= Bitset(xs)
        assert b == Bitset(xs)

    def test_add(self):
        b = Bitset()
        b.add(3)
        b.add(3)
        assert len(b) == 1
        assert b.to_list() == [3]

    def test_numpy_integers_set_the_same_bits(self):
        # 1 << np.int64(70) wraps to 0: ids >= 63 must not vanish.
        b = Bitset([np.int64(70)])
        b.add(np.int64(130))
        assert b.to_list() == [70, 130]
        assert np.int64(70) in b and np.int64(71) not in b
        assert b.memory_bytes() == Bitset([70, 130]).memory_bytes()

    def test_memory_bytes_grows(self):
        small = Bitset([1])
        large = Bitset([10_000])
        assert large.memory_bytes() > small.memory_bytes()

    def test_equality_hash(self):
        assert Bitset([1, 2]) == Bitset([2, 1])
        assert hash(Bitset([5])) == hash(Bitset([5]))


class TestBitsetSetSemantics:
    """Edge cases of the one domain set: empties, word boundaries, masks."""

    def test_empty(self):
        b = Bitset()
        assert len(b) == 0
        assert b.to_list() == []
        assert 0 not in b
        assert b == Bitset([])
        assert b.memory_bytes() == 1

    def test_add_across_words(self):
        # Members on both sides of 64-bit word and 2**16 boundaries.
        vals = [0, 63, 64, 65_535, 65_536, 1_000_000]
        b = Bitset()
        for v in reversed(vals):
            b.add(v)
        assert b.to_list() == vals
        assert len(b) == len(vals)
        assert 65_537 not in b and 62 not in b

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            Bitset().add(-1)
        with pytest.raises(ValueError):
            Bitset([3, -2])

    def test_negative_contains_false(self):
        b = Bitset([0, 1])
        assert -1 not in b
        assert -100 not in b

    def test_to_list_is_sorted_and_unique(self):
        assert Bitset([9, 3, 3, 0, 9]).to_list() == [0, 3, 9]

    def test_binary_operators_leave_operands_alone(self):
        a, b = Bitset([1, 2]), Bitset([2, 3])
        union, inter = a | b, a & b
        assert union.to_list() == [1, 2, 3] and inter.to_list() == [2]
        assert a.to_list() == [1, 2] and b.to_list() == [2, 3]
        assert union is not a and inter is not a

    def test_ior_returns_the_same_object(self):
        a = Bitset([1])
        alias = a
        a |= Bitset([4])
        assert a is alias
        assert alias.to_list() == [1, 4]

    def test_equality_with_other_types_is_false(self):
        assert Bitset([1]) != {1}
        assert Bitset([1]) != 2
        assert Bitset([1]) != [1]

    @given(values.filter(bool))
    def test_memory_bytes_covers_the_highest_member(self, xs):
        # One bit per position up to the highest member, within a byte.
        bits = max(xs) + 1
        assert bits <= Bitset(xs).memory_bytes() * 8 < bits + 16

    @given(values, values)
    def test_ior_equals_or(self, xs, ys):
        a = Bitset(xs)
        a |= Bitset(ys)
        assert a == Bitset(xs) | Bitset(ys)

    @given(values, values)
    def test_inclusion_exclusion(self, xs, ys):
        a, b = Bitset(xs), Bitset(ys)
        assert len(a | b) == len(a) + len(b) - len(a & b)

    @given(values, values)
    def test_absorption(self, xs, ys):
        a, b = Bitset(xs), Bitset(ys)
        assert (a & b) | a == a
        assert (a | b) & a == a

    @given(values)
    def test_hash_follows_equality(self, xs):
        assert Bitset(xs) == Bitset(list(reversed(xs)))
        assert hash(Bitset(xs)) == hash(Bitset(list(reversed(xs))))

    @given(st.lists(st.booleans(), max_size=200))
    def test_from_mask_matches_constructor(self, mask):
        arr = np.array(mask, dtype=bool)
        assert Bitset.from_mask(arr) == Bitset(np.flatnonzero(arr))

    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65])
    def test_from_mask_each_width(self, width):
        # Widths that end mid-byte, on a byte, and past a 64-bit word.
        mask = np.arange(width) % 3 == 0
        b = Bitset.from_mask(mask)
        assert b.to_list() == list(range(0, width, 3))
        assert width not in b

    def test_from_mask_all_false_is_empty(self):
        assert Bitset.from_mask(np.zeros(70, dtype=bool)) == Bitset()


def test_bfs_fsm_domains_on_a_from_csr_graph():
    """The baseline feeds graph-row ids (numpy integers) into Bitsets."""
    g = mico_like(0.15)
    assert g.num_vertices > 64
    stored = DataGraph.from_csr(*g.csr_arrays())
    baseline, _ = bfs_fsm(stored, 1, 3)
    engine = {canonical_code(p): s for p, s in fsm(stored, 1, 3).frequent.items()}
    assert baseline and baseline == engine


class TestDomain:
    def test_support_is_min_domain_size(self):
        d = Domain(2)
        d.update([0, 10])
        d.update([1, 10])
        d.update([2, 10])
        assert d.support() == 1  # vertex 1 only ever maps to 10

    def test_update_ignores_negative(self):
        d = Domain(2)
        d.update([3, -1])
        assert len(d.vertex_domain(0)) == 1
        assert len(d.vertex_domain(1)) == 0

    def test_orbit_merging(self):
        # Symmetric pattern (both vertices one orbit): canonical matches
        # only ever put the smaller data vertex first, but the full domain
        # of each vertex is the union across the orbit.
        d = Domain(2, orbits=[[0, 1]])
        d.update([0, 5])
        d.update([1, 5])
        # raw domains: {0,1} and {5}; orbit-merged: {0,1,5} for both
        assert d.support() == 3

    def test_trivial_orbits_no_merge(self):
        d = Domain(2, orbits=[[0], [1]])
        d.update([0, 5])
        d.update([1, 5])
        assert d.support() == 1

    def test_merge_from_unions_and_clears_counts(self):
        a, b = Domain(1), Domain(1)
        a.update([1])
        b.update([2])
        a.merge_from(b)
        assert a.vertex_domain(0).to_list() == [1, 2]
        assert a.writes == 2

    def test_writes_counted(self):
        d = Domain(3)
        d.update([1, 2, 3])
        d.update([1, 2, 3])
        assert d.writes == 6

    def test_empty_domain_support_zero(self):
        assert Domain(2).support() == 0
        assert Domain(0).support() == 0

    def test_memory_bytes(self):
        d = Domain(2)
        d.update([100, 200])
        assert d.memory_bytes() > 0

    def test_memory_bytes_sums_vertex_bitsets(self):
        d = Domain(2)
        d.update([100, 200])
        assert d.memory_bytes() == (
            Bitset([100]).memory_bytes() + Bitset([200]).memory_bytes()
        )

    def test_vertex_domain_merges_its_orbit_only(self):
        d = Domain(3, orbits=[[0, 2], [1]])
        d.update([1, 5, 2])
        d.update([3, 6, 4])
        assert d.vertex_domain(0).to_list() == [1, 2, 3, 4]
        assert d.vertex_domain(2) == d.vertex_domain(0)
        assert d.vertex_domain(1).to_list() == [5, 6]

    def test_merge_from_mixed_rounds(self):
        # One table fed by batches, one per match: merged equals one
        # table fed everything.
        batch = np.array([[1, 9], [2, 9]], dtype=np.int64)
        singles = [[2, 70], [3, 9]]
        a, b, whole = Domain(2), Domain(2), Domain(2)
        a.update_batch(batch)
        for row in singles:
            b.update(row)
        whole.update_batch(batch)
        whole.update_batch(np.array(singles, dtype=np.int64))
        a.merge_from(b)
        for u in range(2):
            assert a.vertex_domain(u) == whole.vertex_domain(u)
        assert a.writes == whole.writes
        assert a.support() == whole.support()


class TestUpdateBatch:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=70_000),
                st.integers(min_value=-1, max_value=300),
                st.just(-1),  # an anti-vertex column
            ),
            max_size=40,  # covers fewer than and at least 16 rows
        )
    )
    def test_matches_per_row_update(self, rows):
        batched = Domain(3)
        per_row = Domain(3)
        batched.update_batch(np.array(rows, dtype=np.int64).reshape(-1, 3))
        for row in rows:
            per_row.update(row)
        for u in range(3):
            assert batched.vertex_domain(u) == per_row.vertex_domain(u)
        assert batched.writes == per_row.writes
        assert batched.support() == per_row.support()

    def test_accumulates_across_batches(self):
        d = Domain(2)
        d.update_batch(np.array([[1, 9], [2, 9]]))
        d.update_batch(np.array([[2, 70], [3, 9]]))
        assert d.vertex_domain(0).to_list() == [1, 2, 3]
        assert d.vertex_domain(1).to_list() == [9, 70]
        assert d.writes == 8

    def test_empty_batch_is_a_no_op(self):
        d = Domain(2)
        d.update_batch(np.empty((0, 2), dtype=np.int64))
        assert d.writes == 0
        assert d.support() == 0

    def test_all_anti_vertex_column_stays_empty(self):
        d = Domain(2)
        d.update_batch(np.array([[1, -1], [2, -1]], dtype=np.int64))
        assert d.vertex_domain(0).to_list() == [1, 2]
        assert len(d.vertex_domain(1)) == 0
        assert d.writes == 4
        assert d.support() == 0

    def test_orbit_folding_batch_equals_per_match_on_real_matches(self):
        # Canonical chain matches fill raw domains unevenly; orbit
        # folding must give the same support whichever sink fed them.
        g = mico_like(0.1)
        p = generate_chain(3)
        orbits = orbit_partition(p)
        batched = Domain(p.num_vertices, orbits)
        per_match = Domain(p.num_vertices, orbits)

        def sink(rows):
            batched.update_batch(rows)
            for row in rows.tolist():
                per_match.update(row)

        total = MiningSession(g).match_batches(p, sink)
        assert total > 0
        assert batched.writes == per_match.writes == total * p.num_vertices
        for u in range(p.num_vertices):
            assert batched.vertex_domain(u) == per_match.vertex_domain(u)
        assert batched.support() == per_match.support() > 0
