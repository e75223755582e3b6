"""Scheduler-layer tests: chunk ledgers + work-stealing parity.

The work-stealing runtime must be invisible in results: counts, callback
multisets and early-termination accounting have to match the sequential
reference no matter how the frontier is chunked or which worker claims
which chunk.  This suite fuzz-pins that across chunk granularities
(:data:`~repro.runtime.scheduler.CHUNKS_PER_WORKER` patched to 1 / 2 /
default / 10**6 — the last cuts about one start per chunk) and the
pattern feature matrix, and unit-tests the shared chunking layer itself
(:mod:`repro.runtime.scheduler`).
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExplorationControl, MiningSession, count, match
from repro.graph import barabasi_albert, erdos_renyi, power_law, with_random_labels
from repro.graph.generators import random_regular
from repro.pattern import (
    Pattern,
    generate_chain,
    generate_clique,
    generate_star,
)
from repro.runtime import (
    ChunkLedger,
    parallel_match,
    process_count,
    scheduler,
    weighted_boundaries,
)

GRANULARITIES = (1, 2, scheduler.CHUNKS_PER_WORKER, 10**6)


def _chunks_per_worker(value: int):
    """Patch the ledger's chunk granularity for the enclosed runs."""
    return mock.patch.object(scheduler, "CHUNKS_PER_WORKER", value)


weights_lists = st.lists(
    st.integers(min_value=0, max_value=50), min_size=0, max_size=60
)
caps = st.integers(min_value=1, max_value=80)


# ----------------------------------------------------------------------
# The shared chunking layer
# ----------------------------------------------------------------------


class TestWeightedBoundaries:
    @given(weights_lists, caps)
    def test_boundaries_partition_and_respect_cap(self, weights, cap):
        bounds = weighted_boundaries(weights, cap)
        assert bounds[0] == 0
        assert bounds[-1] == len(weights)
        assert bounds == sorted(set(bounds))
        for lo, hi in zip(bounds, bounds[1:]):
            total = sum(weights[lo:hi])
            # Every chunk except the last reached the cap; any chunk is
            # minimal — dropping its last element falls below the cap.
            if hi != len(weights):
                assert total >= cap
            if hi - lo > 1:
                assert total - weights[hi - 1] < cap

    @given(weights_lists, caps)
    def test_boundaries_are_the_engines_bounded_slices(self, weights, cap):
        from repro.core.accel import bounded_slices

        array = np.asarray(weights, dtype=np.int64)
        bounds = weighted_boundaries(weights, cap)
        assert weighted_boundaries(array, cap) == bounds
        assert [(sl.start, sl.stop) for sl in bounded_slices(array, cap)] == (
            list(zip(bounds, bounds[1:]))
        )

    def test_lone_overweight_element_forms_own_chunk(self):
        assert weighted_boundaries([1, 100, 1, 1], 3) == [0, 2, 4]
        assert weighted_boundaries([100, 1, 1, 1], 3) == [0, 1, 4]


class TestChunkLedger:
    def test_uniform_chunks_cover_everything_once(self):
        ledger = ChunkLedger.build(
            list(range(100)), weights=[1] * 100, num_workers=2
        )
        assert len(ledger) > 1
        seen = []
        for i in range(len(ledger)):
            seen.extend(ledger.chunk(i))
        assert seen == list(range(100))
        assert ledger.num_tasks == 100

    def test_weighted_chunks_shrink_around_hubs(self):
        # A mega-hub up front: its chunk must carry few tasks while the
        # uniform tail packs many per chunk.
        weights = [1000] + [1] * 99
        ledger = ChunkLedger.build(
            list(range(100)), weights=weights, num_workers=4
        )
        first = ledger.chunk(0)
        assert len(first) == 1  # the hub rides alone
        assert len(ledger.chunk(1)) > 1
        flat = [v for i in range(len(ledger)) for v in ledger.chunk(i)]
        assert flat == list(range(100))

    def test_auto_cap_targets_chunks_per_worker(self):
        from repro.runtime.scheduler import CHUNKS_PER_WORKER

        ledger = ChunkLedger.build(
            list(range(1024)), weights=[1] * 1024, num_workers=4
        )
        assert len(ledger) == 4 * CHUNKS_PER_WORKER

    @pytest.mark.parametrize("chunks_per_worker", GRANULARITIES)
    def test_granularity_sets_the_chunk_count(
        self, chunks_per_worker
    ):
        with _chunks_per_worker(chunks_per_worker):
            ledger = ChunkLedger.build(
                range(64), weights=[1] * 64, num_workers=2
            )
        assert len(ledger) == min(64, 2 * chunks_per_worker)

    def test_empty_order(self):
        ledger = ChunkLedger.build([], weights=[])
        assert len(ledger) == 0
        assert ledger.num_tasks == 0


class TestLedgerShapes:
    """The degree-weighted ledger over every order type the runtimes and
    benches hand it: chunks are contiguous slices of the order, in order,
    each start exactly once, no more than the workers' chunk budget, and
    hub chunks never carry more starts than the lighter ones after."""

    @pytest.mark.parametrize("num_workers", [1, 3, 4, 7])
    @pytest.mark.parametrize(
        "make_order",
        [
            lambda n: list(range(n)),
            lambda n: range(n - 1, -1, -1),
            lambda n: np.arange(n - 1, -1, -1, dtype=np.int64),
        ],
        ids=["list", "range", "numpy"],
    )
    @pytest.mark.parametrize("n", [0, 2, 5, 103])
    def test_chunks_are_contiguous_order_slices(
        self, n, make_order, num_workers
    ):
        order = make_order(n)
        # Hub-first degree + 1, as the runtimes weight their frontiers.
        weights = [n - i + 1 for i in range(n)]
        ledger = ChunkLedger.build(
            order, weights=weights, num_workers=num_workers
        )
        assert ledger.num_tasks == n
        assert len(ledger) <= min(n, num_workers * scheduler.CHUNKS_PER_WORKER)
        assert n == 0 or len(ledger) >= 1
        sizes = []
        covered = []
        for i in range(len(ledger)):
            chunk = ledger.chunk(i)
            assert type(chunk) is type(order)
            lo, hi = ledger.boundaries[i], ledger.boundaries[i + 1]
            assert list(chunk) == list(order[lo:hi])
            sizes.append(len(chunk))
            covered.extend(chunk)
        assert covered == list(order)
        assert all(size > 0 for size in sizes)
        assert sizes[:-1] == sorted(sizes[:-1])

    def test_numpy_order_stays_an_array(self):
        order = np.arange(10, dtype=np.int64)
        ledger = ChunkLedger.build(
            order, weights=np.ones(10, dtype=np.int64) + order, num_workers=3
        )
        assert len(ledger) > 1
        for i in range(len(ledger)):
            assert isinstance(ledger.chunk(i), np.ndarray)


# ----------------------------------------------------------------------
# Thread-pool parity: every granularity vs sequential reference
# ----------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=30)


def _fuzz_graph_and_pattern(seed: int):
    """A (graph, pattern, edge_induced) triple sweeping the feature matrix."""
    kind = seed % 6
    if kind == 0:
        return erdos_renyi(50 + seed, 0.12, seed=seed), generate_clique(3), True
    if kind == 1:
        g = with_random_labels(erdos_renyi(45, 0.15, seed=seed), 3, seed=seed)
        p = generate_chain(3)
        p.set_label(0, seed % 3)
        p.set_label(2, (seed + 1) % 3)
        return g, p, True
    if kind == 2:
        # Anti-edge: a path whose endpoints must NOT be adjacent.
        p = Pattern.from_edges([(0, 1), (1, 2)], anti_edges=[(0, 2)])
        return barabasi_albert(40 + seed, 3, seed=seed), p, True
    if kind == 3:
        # Vertex-induced matching (anti-edge completion, Theorem 3.1).
        return erdos_renyi(40 + seed, 0.18, seed=seed), generate_star(3), False
    if kind == 4:
        # Anti-vertex: triangles in no 4-clique (maximal-clique query).
        from repro.mining.cliques import maximal_clique_pattern

        return erdos_renyi(35 + seed, 0.25, seed=seed), maximal_clique_pattern(3), True
    return power_law(60 + seed, gamma=2.0, seed=seed), generate_star(3), True


class TestThreadScheduleParity:
    @given(seeds)
    @settings(max_examples=12, deadline=None)
    def test_counts_pin_sequential_reference(self, seed):
        g, p, edge_induced = _fuzz_graph_and_pattern(seed)
        expected = count(g, p, edge_induced=edge_induced, engine="reference")
        for granularity in GRANULARITIES:
            with _chunks_per_worker(granularity):
                result = parallel_match(
                    g, p, num_threads=3, edge_induced=edge_induced
                )
            assert result.matches == expected, granularity

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_callback_multisets_pin_sequential(self, seed):
        g, p, edge_induced = _fuzz_graph_and_pattern(seed)
        sequential: Counter = Counter()
        match(g, p, lambda m: sequential.update([m.mapping]),
              edge_induced=edge_induced, engine="reference")
        for granularity in GRANULARITIES:
            found: Counter = Counter()

            def cb(m, agg):
                found.update([m.mapping])

            with _chunks_per_worker(granularity):
                result = parallel_match(
                    g, p, num_threads=3, callback=cb,
                    edge_induced=edge_induced,
                )
            assert found == sequential, granularity
            assert result.matches == sum(found.values())

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_control_stops_early_and_counts_callbacks(self, seed):
        g = erdos_renyi(50 + seed, 0.2, seed=seed)
        p = generate_clique(3)
        total = count(g, p, engine="reference")
        if total < 8:
            return
        for granularity in GRANULARITIES:
            control = ExplorationControl()
            fired = [0]

            def cb(m, agg):
                fired[0] += 1
                if fired[0] >= 3:
                    control.stop()

            with _chunks_per_worker(granularity):
                result = parallel_match(
                    g, p, num_threads=2, callback=cb, control=control
                )
            assert control.stopped
            # The returned count is exactly the callbacks that fired,
            # and the stop landed before full enumeration.
            assert result.matches == fired[0]
            assert result.matches < total

    def test_uniform_frontier_pins_sequential(self):
        """A frontier with no hub start and low skew — where a fixed
        stride partition used to be planned — runs the same work
        stealing and pins the reference, per thread accounting too."""
        g = random_regular(3000, 10, seed=1)
        for p in (generate_clique(3), generate_chain(3)):
            expected = count(g, p, engine="reference")
            result = parallel_match(g, p, num_threads=3)
            assert result.matches == expected
            assert sum(result.per_thread_matches) == expected

    def test_session_defaults_steer_the_runtime(self):
        g = erdos_renyi(50, 0.15, seed=9)
        session = MiningSession(g, engine="reference")
        result = parallel_match(session, generate_clique(3), num_threads=2)
        assert result.engine == "reference"
        assert result.matches == count(g, generate_clique(3),
                                       engine="reference")


# ----------------------------------------------------------------------
# Storage-agnostic scheduling: mmap-opened graphs pin the same results
# ----------------------------------------------------------------------


class TestMmapBackedScheduleParity:
    """The work-stealing runtime must be storage-agnostic: a graph
    re-opened from an ``.rgx`` mmap store pins its in-memory twin's
    sequential reference across chunk granularities, engines and share
    modes."""

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_counts_pin_sequential_reference(self, seed):
        pytest.importorskip("numpy")
        import os
        import tempfile

        from repro.graph import load_mmap, save_mmap

        g, p, edge_induced = _fuzz_graph_and_pattern(seed)
        expected = count(g, p, edge_induced=edge_induced, engine="reference")
        fd, path = tempfile.mkstemp(suffix=".rgx")
        os.close(fd)
        try:
            save_mmap(g, path)
            h = load_mmap(path)
            for granularity in GRANULARITIES:
                with _chunks_per_worker(granularity):
                    result = parallel_match(
                        h, p, num_threads=3, edge_induced=edge_induced
                    )
                assert result.matches == expected, granularity
            assert process_count(
                h, p, num_processes=2, edge_induced=edge_induced,
                share_mode="mmap",
            ) == expected
        finally:
            os.unlink(path)


# ----------------------------------------------------------------------
# Process-pool parity (slower: real pools — a few pinned cases only)
# ----------------------------------------------------------------------


class TestProcessScheduleParity:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_counts_pin_sequential(self, granularity):
        g = power_law(150, gamma=2.0, seed=4)
        p = generate_clique(3)
        expected = count(g, p, engine="reference")
        with _chunks_per_worker(granularity):
            got = process_count(g, p, num_processes=3)
        assert got == expected

    def test_labeled_dynamic_pins_sequential(self):
        g = with_random_labels(erdos_renyi(70, 0.12, seed=23), 3, seed=5)
        p = generate_chain(3)
        p.set_label(0, 1)
        p.set_label(2, 2)
        expected = count(g, p, engine="reference")
        with _chunks_per_worker(2):
            assert process_count(g, p, num_processes=2) == expected

    def test_uniform_frontier_pins_sequential(self):
        g = random_regular(3000, 10, seed=1)
        patterns = [generate_clique(3), generate_chain(3)]
        expected = {p: count(g, p, engine="reference") for p in patterns}
        assert MiningSession(g).count_many(
            patterns, num_processes=2
        ) == expected
