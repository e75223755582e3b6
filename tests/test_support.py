"""Tests for Bitset and MNI Domain (support computation)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.baselines import bfs_fsm
from repro.bitmap import RoaringBitmap
from repro.graph import DataGraph, mico_like
from repro.mining import Bitset, Domain, fsm
from repro.pattern import canonical_code

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


class TestUpdateBatch:
    @pytest.mark.parametrize("factory", [Bitset, RoaringBitmap])
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
    def test_matches_per_row_update(self, factory, rows):
        batched = Domain(3, bitset_factory=factory)
        per_row = Domain(3, bitset_factory=factory)
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
