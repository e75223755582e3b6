"""Tests for the concurrent runtime: scheduler, threads, aggregation."""

import os
import threading
import time

import pytest

from repro.core import Aggregator, ExplorationControl, MiningSession, count
from repro.errors import QueryCancelledError, WorkerCrashError
from repro.runtime import parallel
from repro.graph import erdos_renyi, with_random_labels
from repro.pattern import (
    Pattern,
    generate_all_vertex_induced,
    generate_clique,
    pattern_p1,
)
from repro.runtime import (
    AggregatorThread,
    ChunkLedger,
    DeadlineControl,
    TaskScheduler,
    parallel_match,
    process_count,
    process_count_many,
    scheduler,
    stop_after_n_matches,
    stop_when_aggregate,
)


def _boom_worker(*_args):
    """Tolerant-worker stand-in: dies in every spawned child.

    The parent sees a nonzero exit, requeues the leased chunks, and —
    once retries are exhausted — reports WorkerCrashError; patching the
    module works because fork children inherit the patched module.
    """
    raise RuntimeError("worker exploded")


class TestTaskScheduler:
    def test_chunks_cover_everything_once(self):
        sched = TaskScheduler(
            ChunkLedger.build(range(100), weights=[1] * 100, num_workers=2)
        )
        seen = []
        while True:
            chunk = sched.next_chunk()
            if not chunk:
                break
            seen.extend(chunk)
        assert seen == list(range(100))

    def test_one_start_chunks_drain_through_the_same_cursor(
        self, monkeypatch
    ):
        # The finest granularity cuts one start per chunk; the cursor
        # hands them out in order, once each, then reports exhaustion.
        monkeypatch.setattr(scheduler, "CHUNKS_PER_WORKER", 10**6)
        sched = TaskScheduler(
            ChunkLedger.build(range(4), weights=[1] * 4, num_workers=3)
        )
        chunks = [list(sched.next_chunk()) for _ in range(5)]
        assert chunks == [[0], [1], [2], [3], []]

    def test_thread_safety(self):
        sched = TaskScheduler(
            ChunkLedger.build(range(1000), weights=[1] * 1000, num_workers=32)
        )
        collected = []
        lock = threading.Lock()

        def worker():
            while True:
                chunk = sched.next_chunk()
                if not chunk:
                    return
                with lock:
                    collected.extend(chunk)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(collected) == list(range(1000))


class TestParallelMatch:
    def test_counts_match_sequential(self):
        g = erdos_renyi(80, 0.12, seed=1)
        expected = count(g, pattern_p1())
        for threads in (1, 2, 4):
            result = parallel_match(g, pattern_p1(), num_threads=threads)
            assert result.matches == expected

    def test_callback_aggregation(self):
        g = erdos_renyi(60, 0.15, seed=2)
        expected = count(g, generate_clique(3))

        def cb(m, agg):
            agg.map_pattern("triangles", 1)

        result = parallel_match(g, generate_clique(3), num_threads=3, callback=cb)
        assert result.aggregates.get("triangles") == expected

    def test_stats_merged(self):
        # Engine stats are a reference-engine feature; force it so the
        # counters are populated (auto would pick the batched engine).
        g = erdos_renyi(50, 0.15, seed=3)
        result = parallel_match(g, generate_clique(3), num_threads=2,
                                engine="reference")
        assert result.engine == "reference"
        assert result.stats.complete_matches == result.matches
        assert result.stats.tasks == 50

    def test_early_stop_with_control(self):
        g = erdos_renyi(60, 0.25, seed=4)
        control = ExplorationControl()

        def cb(m, agg):
            control.stop()

        result = parallel_match(
            g, generate_clique(3), num_threads=2, callback=cb, control=control
        )
        assert result.matches < count(g, generate_clique(3))

    def test_per_thread_accounting(self):
        g = erdos_renyi(60, 0.2, seed=5)
        result = parallel_match(g, generate_clique(3), num_threads=3)
        assert sum(result.per_thread_matches) == result.matches
        assert 0.0 <= result.load_imbalance() <= 1.0


class TestParallelMatchEngines:
    """The accel-exclusion fix: threads dispatch per-worker like count."""

    @pytest.mark.parametrize("engine", ["auto", "accel-batch", "reference"])
    def test_identical_totals_across_engines(self, engine):
        g = erdos_renyi(70, 0.15, seed=8)
        expected = count(g, generate_clique(3), engine="reference")
        result = parallel_match(
            g, generate_clique(3), num_threads=3, engine=engine
        )
        assert result.matches == expected

    def test_auto_without_hooks_drives_batched_engine(self):
        g = erdos_renyi(70, 0.15, seed=8)  # well above the batch crossover
        result = parallel_match(g, generate_clique(3), num_threads=2)
        assert result.engine == "accel-batch"
        assert result.matches == count(g, generate_clique(3), engine="reference")

    def test_single_vertex_core_pattern_batched(self):
        from repro.pattern import generate_chain

        g = erdos_renyi(60, 0.15, seed=9)
        result = parallel_match(g, generate_chain(3), num_threads=3)
        assert result.engine == "accel-batch"
        assert result.matches == count(g, generate_chain(3), engine="reference")

    def test_callback_aggregation_on_batched_engine(self):
        g = erdos_renyi(60, 0.15, seed=10)
        expected = count(g, generate_clique(3), engine="reference")

        def cb(m, agg):
            agg.map_pattern("triangles", 1)

        result = parallel_match(g, generate_clique(3), num_threads=3, callback=cb)
        assert result.engine == "accel-batch"
        assert result.aggregates.get("triangles") == expected

    def test_user_control_stays_on_batched_engine(self):
        # Since the batched engine polls controls between frontier blocks
        # (and per emitted match), a user control no longer forces the
        # interpreter under auto dispatch.
        g = erdos_renyi(50, 0.15, seed=11)
        result = parallel_match(
            g, generate_clique(3), num_threads=2, control=ExplorationControl()
        )
        assert result.engine == "accel-batch"
        assert result.matches == count(g, generate_clique(3), engine="reference")

    def test_forced_batch_with_control_stops_early(self):
        g = erdos_renyi(40, 0.3, seed=12)
        control = ExplorationControl()

        def cb(m, agg):
            control.stop()

        result = parallel_match(
            g,
            generate_clique(3),
            num_threads=2,
            callback=cb,
            control=control,
            engine="accel-batch",
        )
        assert result.engine == "accel-batch"
        assert control.stopped
        assert result.matches < count(g, generate_clique(3), engine="reference")

    def test_unknown_engine_rejected(self):
        g = erdos_renyi(20, 0.3, seed=13)
        with pytest.raises(ValueError):
            parallel_match(g, generate_clique(3), engine="warp-drive")

    def test_labeled_pattern_batched_totals(self):
        from repro.graph import with_random_labels
        from repro.pattern import generate_chain

        g = with_random_labels(erdos_renyi(60, 0.15, seed=14), 3, seed=2)
        p = generate_chain(3)
        p.set_label(0, 0)
        p.set_label(2, 1)
        expected = count(g, p, engine="reference")
        result = parallel_match(g, p, num_threads=3)
        assert result.matches == expected


SHARE_MODES = ("fork", "mmap")


@pytest.fixture(
    params=(1, scheduler.CHUNKS_PER_WORKER), ids=lambda v: f"cpw{v}"
)
def chunks_per_worker(request, monkeypatch):
    """Pin a process test across chunk granularities: one chunk per
    worker (the coarsest lease, so a requeue or cancel moves the most
    work) and the default."""
    monkeypatch.setattr(scheduler, "CHUNKS_PER_WORKER", request.param)
    return request.param


def _skip_unless_fork_available(share_mode):
    if share_mode == "fork":
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")


def _near_forest():
    """A graph below the batched crossover (avg degree < 2)."""
    from repro.pattern import generate_chain
    from repro.runtime.planner import explain

    g = erdos_renyi(300, 0.005, seed=3)
    p = generate_chain(3)
    assert explain(g, p).engine == "reference"
    assert count(g, p, engine="reference") > 0
    return g, p


class TestProcessCount:
    def test_matches_sequential(self):
        g = erdos_renyi(60, 0.15, seed=6)
        expected = count(g, generate_clique(3))
        assert process_count(g, generate_clique(3), num_processes=1) == expected
        assert process_count(g, generate_clique(3), num_processes=2) == expected

    def test_vertex_induced(self):
        g = erdos_renyi(40, 0.2, seed=7)
        from repro.pattern import generate_star

        expected = count(g, generate_star(3), edge_induced=False)
        got = process_count(
            g, generate_star(3), num_processes=2, edge_induced=False
        )
        assert got == expected

    @pytest.mark.parametrize("share_mode", SHARE_MODES)
    def test_share_modes_agree(self, share_mode, chunks_per_worker):
        _skip_unless_fork_available(share_mode)
        g = erdos_renyi(60, 0.15, seed=6)
        expected = count(g, generate_clique(3))
        got = process_count(
            g,
            generate_clique(3),
            num_processes=3,
            share_mode=share_mode,
        )
        assert got == expected

    @pytest.mark.parametrize("share_mode", SHARE_MODES)
    def test_is_the_one_pattern_case_of_count_many(
        self, share_mode, chunks_per_worker
    ):
        """``process_count(g, p)`` is ``process_count_many(g, [p])[p]`` —
        on a batched-regime graph and on a near-forest one (avg degree
        < 2, below the sequential crossover: workers still run the fused
        engine, which beat the interpreter there), pinned to the
        interpreter oracle."""
        _skip_unless_fork_available(share_mode)
        kw = dict(num_processes=2, share_mode=share_mode)
        dense = (erdos_renyi(60, 0.15, seed=6), generate_clique(3))
        for g, p in (dense, _near_forest()):
            expected = count(g, p, engine="reference")
            assert process_count(g, p, **kw) == expected
            assert process_count_many(g, [p], **kw) == {p: expected}

    def test_shared_labeled_graph(self):
        from repro.graph import with_random_labels
        from repro.pattern import generate_chain

        g = with_random_labels(erdos_renyi(50, 0.2, seed=9), 3, seed=4)
        p = generate_chain(3)
        p.set_label(0, 1)
        p.set_label(2, 2)
        expected = count(g, p)
        assert process_count(g, p, num_processes=2) == expected

    @pytest.mark.parametrize("share_mode", SHARE_MODES)
    def test_dense_graph_workers_agree(self, share_mode):
        """Dense regime: hub vertices clear the roaring threshold, so
        workers probe membership through the packed bit rows."""
        _skip_unless_fork_available(share_mode)
        g = erdos_renyi(200, 0.7, seed=13)
        expected = count(g, generate_clique(3))
        got = process_count(
            g, generate_clique(3), num_processes=2, share_mode=share_mode
        )
        assert got == expected

    @pytest.mark.parametrize("share_mode", SHARE_MODES)
    def test_dense_labeled_graph_shares_labels(self, share_mode):
        """Labels must survive graph sharing into the workers."""
        from repro.graph import with_random_labels
        from repro.pattern import generate_clique as clique

        _skip_unless_fork_available(share_mode)
        g = with_random_labels(erdos_renyi(200, 0.7, seed=17), 3, seed=3)
        p = clique(3)
        p.set_label(0, 1)
        p.set_label(1, 2)
        expected = count(g, p)
        got = process_count(g, p, num_processes=2, share_mode=share_mode)
        assert got == expected

    @pytest.mark.parametrize("share_mode", SHARE_MODES)
    def test_moderate_density_uses_batched_workers(self, share_mode):
        """The batched tier engages at single-digit average degree."""
        from repro.runtime.planner import explain

        _skip_unless_fork_available(share_mode)
        g = erdos_renyi(80, 0.1, seed=21)  # avg degree ~8
        # guard: batch path engaged
        assert explain(g, generate_clique(3)).engine == "accel-batch"
        expected = count(g, generate_clique(3), engine="reference")
        got = process_count(
            g, generate_clique(3), num_processes=3, share_mode=share_mode
        )
        assert got == expected

    def test_labeled_frontier_slicing_partitions_work(self):
        """Workers slice the label-filtered frontier, not vertex ranges."""
        from repro.graph import with_random_labels
        from repro.pattern import generate_chain

        g = with_random_labels(erdos_renyi(70, 0.12, seed=23), 3, seed=5)
        p = generate_chain(3)
        p.set_label(0, 1)
        p.set_label(2, 2)
        expected = count(g, p, engine="reference")
        for procs in (2, 3):
            assert process_count(g, p, num_processes=procs) == expected

    @pytest.mark.parametrize(
        "share_mode", ["shm", "pickle", "carrier-pigeon"]
    )
    @pytest.mark.parametrize("num_processes", [1, 2])
    def test_unknown_share_mode_rejected(self, share_mode, num_processes):
        """Exactly ``None``/``"fork"``/``"mmap"`` are accepted — the
        removed modes fail loudly even when the pool degenerates."""
        g = erdos_renyi(20, 0.3, seed=2)
        kw = dict(num_processes=num_processes, share_mode=share_mode)
        with pytest.raises(ValueError, match="fork"):
            process_count(g, generate_clique(3), **kw)
        with pytest.raises(ValueError, match="fork"):
            process_count_many(g, [generate_clique(3)], **kw)

    def test_labeled_anti_edge_pattern_agrees_across_modes(
        self, chunks_per_worker
    ):
        """A labeled pattern with an anti-edge exercises label filtering
        and the anti-edge membership kernels in the workers at once."""
        g = with_random_labels(erdos_renyi(50, 0.18, seed=12), 3, seed=7)
        p = Pattern.from_edges([(0, 1), (1, 2)], anti_edges=[(0, 2)])
        p.set_label(1, 1)
        expected = count(g, p, engine="reference")
        for mode in SHARE_MODES:
            got = process_count(g, p, num_processes=3, share_mode=mode)
            assert got == expected, mode

    def test_non_fork_platform_defaults_to_mmap_under_spawn(
        self, monkeypatch
    ):
        """Where fork is missing the default handle is the ``.rgx`` path
        and workers are spawned: everything they receive must pickle."""
        import multiprocessing

        recorded = []
        original = parallel._mmap_store

        def recording(session):
            recorded.append(original(session))
            return recorded[-1]

        monkeypatch.setattr(parallel, "_mmap_store", recording)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        g = erdos_renyi(40, 0.2, seed=6)
        expected = count(g, generate_clique(3))
        assert process_count(g, generate_clique(3), num_processes=2) == expected
        assert recorded and not os.path.exists(recorded[0][0])


class TestProcessCountFailurePaths:
    """Workers dying mid-run must not leak the mmap spill file."""

    def test_mmap_spill_unlinked_when_worker_raises(
        self, monkeypatch, chunks_per_worker
    ):
        g = erdos_renyi(40, 0.2, seed=3)
        recorded: list[str] = []
        original = parallel._mmap_store

        def recording(session):
            path, is_temp = original(session)
            assert is_temp  # generated graph: must spill, not reuse
            recorded.append(path)
            return path, is_temp

        monkeypatch.setattr(parallel, "_mmap_store", recording)
        # Under the fork start method the children inherit the patched
        # module; workers dying surfaces as WorkerCrashError after the
        # requeue retries run dry.
        monkeypatch.setattr(parallel, "_tolerant_worker", _boom_worker)
        with pytest.raises(WorkerCrashError):
            process_count(
                g,
                generate_clique(3),
                num_processes=2,
                share_mode="mmap",
            )
        assert recorded, "mmap mode spilled no store"
        for path in recorded:
            assert not os.path.exists(path)

    def test_mmap_spill_unlinked_on_success_too(
        self, monkeypatch, chunks_per_worker
    ):
        g = erdos_renyi(40, 0.2, seed=4)
        recorded: list[str] = []
        original = parallel._mmap_store

        def recording(session):
            path, is_temp = original(session)
            recorded.append(path)
            return path, is_temp

        monkeypatch.setattr(parallel, "_mmap_store", recording)
        expected = count(g, generate_clique(3))
        assert process_count(
            g,
            generate_clique(3),
            num_processes=2,
            share_mode="mmap",
        ) == expected
        assert recorded
        for path in recorded:
            assert not os.path.exists(path)

    def test_mmap_reuses_degree_sorted_store_file(self, tmp_path):
        """A degree-ordered .rgx-backed session shares its own file with
        workers instead of spilling a copy."""
        from repro.core import MiningSession
        from repro.graph import save_mmap
        from repro.graph.binary_io import GraphStore
        from repro.runtime.parallel import _mmap_store

        g = erdos_renyi(50, 0.2, seed=6)
        ordered, _ = g.degree_ordered()
        path = tmp_path / "ordered.rgx"
        save_mmap(ordered, path)
        session = MiningSession(GraphStore(path))
        got_path, is_temp = _mmap_store(session)
        assert not is_temp
        assert got_path == str(path)
        expected = count(g, generate_clique(3))
        assert process_count(
            session, generate_clique(3), num_processes=2, share_mode="mmap"
        ) == expected
        assert path.exists()  # reused files are never unlinked

    def test_many_mmap_spill_unlinked_when_worker_raises(self, monkeypatch):
        g = erdos_renyi(40, 0.2, seed=5)
        recorded: list[str] = []
        original = parallel._mmap_store

        def recording(session):
            path, is_temp = original(session)
            recorded.append(path)
            return path, is_temp

        monkeypatch.setattr(parallel, "_mmap_store", recording)
        monkeypatch.setattr(parallel, "_tolerant_worker", _boom_worker)
        with pytest.raises(WorkerCrashError):
            process_count_many(
                g,
                generate_all_vertex_induced(3),
                num_processes=2,
                edge_induced=False,
                share_mode="mmap",
            )
        assert recorded
        for path in recorded:
            assert not os.path.exists(path)

    @pytest.mark.parametrize("share_mode", SHARE_MODES)
    def test_no_shared_memory_segment_is_left_behind(
        self, share_mode, monkeypatch
    ):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        _skip_unless_fork_available(share_mode)
        before = set(os.listdir("/dev/shm"))
        g = erdos_renyi(40, 0.2, seed=4)
        process_count(
            g, generate_clique(3), num_processes=2, share_mode=share_mode
        )
        monkeypatch.setattr(parallel, "_tolerant_worker", _boom_worker)
        with pytest.raises(WorkerCrashError):
            process_count(
                g, generate_clique(3), num_processes=2, share_mode=share_mode
            )
        assert set(os.listdir("/dev/shm")) <= before


class TestProcessCountMany:
    @pytest.mark.parametrize("share_mode", SHARE_MODES)
    def test_census_pins_sequential(self, share_mode, chunks_per_worker):
        _skip_unless_fork_available(share_mode)
        g = erdos_renyi(70, 0.12, seed=8)
        motifs = generate_all_vertex_induced(3)
        expected = MiningSession(g).count_many(motifs, edge_induced=False)
        got = process_count_many(
            g,
            motifs,
            num_processes=3,
            edge_induced=False,
            share_mode=share_mode,
        )
        assert got == expected

    def test_label_pinned_groups_partition_correctly(self):
        """Patterns with distinct pinned start labels form distinct
        frontier groups; chunked workers must still demultiplex each
        pattern's count exactly."""
        from repro.pattern import generate_chain

        g = with_random_labels(erdos_renyi(60, 0.15, seed=9), 3, seed=2)
        patterns = []
        for lab in range(3):
            p = generate_chain(3)
            p.set_label(0, lab)
            p.set_label(1, (lab + 1) % 3)
            p.set_label(2, (lab + 2) % 3)
            patterns.append(p)
        patterns.append(generate_clique(3))  # unlabeled group
        session = MiningSession(g)
        expected = session.count_many(patterns)
        assert process_count_many(g, patterns, num_processes=2) == expected

    def test_session_verb_routes_processes(self):
        g = erdos_renyi(60, 0.12, seed=11)
        motifs = generate_all_vertex_induced(3)
        session = MiningSession(g)
        expected = session.count_many(motifs, edge_induced=False)
        got = session.count_many(
            motifs, edge_induced=False, num_processes=2
        )
        assert got == expected

    def test_frontier_chunk_forwarded_to_workers(self):
        # A pathological chunk bound must change nothing but memory use.
        g = erdos_renyi(50, 0.15, seed=15)
        motifs = generate_all_vertex_induced(3)
        session = MiningSession(g)
        expected = session.count_many(motifs, edge_induced=False)
        got = session.count_many(
            motifs, edge_induced=False, num_processes=2, frontier_chunk=2
        )
        assert got == expected

    def test_session_verb_rejects_hooks_under_processes(self):
        from repro.errors import MatchingError

        g = erdos_renyi(30, 0.2, seed=12)
        session = MiningSession(g)
        with pytest.raises(MatchingError):
            session.count_many(
                [generate_clique(3)],
                num_processes=2,
                control=ExplorationControl(),
            )
        with pytest.raises(MatchingError):
            session.count_many(
                [generate_clique(3)], num_processes=2, engine="reference"
            )

    def test_single_process_falls_back_to_sequential(self):
        g = erdos_renyi(40, 0.15, seed=13)
        motifs = generate_all_vertex_induced(3)
        assert process_count_many(
            g, motifs, num_processes=1, edge_induced=False
        ) == MiningSession(g).count_many(motifs, edge_induced=False)


class TestFaultInjection:
    """Deterministic crash tolerance via the REPRO_FAULT_WORKER_DIE knob.

    The spec is ``worker:chunk`` (either side ``"*"``): the matching
    worker calls ``os._exit(1)`` right after leasing the matching chunk,
    before running it.  Worker ids increment across respawn rounds, so a
    pinned-worker spec ("0:0") fires once and the requeued chunk lands
    on a fresh id — the recovery path — while a pinned-chunk spec
    ("*:1") kills every worker that ever leases chunk 1 and exhausts
    the retry budget — the poison path.
    """

    PATTERN_KW = dict(num_processes=2)

    def _graph_and_expected(self):
        g = erdos_renyi(60, 0.15, seed=6)
        return g, count(g, generate_clique(3))

    @pytest.mark.parametrize("share_mode", SHARE_MODES)
    def test_worker_death_recovers_to_exact_count(
        self, share_mode, monkeypatch, chunks_per_worker
    ):
        _skip_unless_fork_available(share_mode)
        g, expected = self._graph_and_expected()
        monkeypatch.setenv(parallel.FAULT_ENV, "0:0")
        got = process_count(
            g,
            generate_clique(3),
            share_mode=share_mode,
            **self.PATTERN_KW,
        )
        assert got == expected

    def test_always_dying_worker_id_still_recovers(
        self, monkeypatch, chunks_per_worker
    ):
        # "0:*" kills worker id 0 on its first lease; every later spawn
        # gets a fresh id, so the whole frontier still completes exactly.
        g, expected = self._graph_and_expected()
        monkeypatch.setenv(parallel.FAULT_ENV, "0:*")
        got = process_count(g, generate_clique(3), **self.PATTERN_KW)
        assert got == expected

    def test_poison_chunk_exhausts_retries(
        self, monkeypatch, chunks_per_worker
    ):
        g, expected = self._graph_and_expected()
        monkeypatch.setenv(parallel.FAULT_ENV, "*:1")
        with pytest.raises(WorkerCrashError) as info:
            process_count(g, generate_clique(3), **self.PATTERN_KW)
        partial = info.value.partial
        assert partial.truncated
        assert partial.detail["failed_chunks"] == [1]
        # Every chunk except the poisoned one was still counted exactly.
        assert 0 < partial < expected

    def test_mmap_spill_cleaned_up_after_recovery(
        self, monkeypatch, chunks_per_worker
    ):
        g, expected = self._graph_and_expected()
        recorded: list[str] = []
        original = parallel._mmap_store

        def recording(session):
            path, is_temp = original(session)
            if is_temp:
                recorded.append(path)
            return path, is_temp

        monkeypatch.setattr(parallel, "_mmap_store", recording)
        monkeypatch.setenv(parallel.FAULT_ENV, "0:0")
        got = process_count(
            g,
            generate_clique(3),
            share_mode="mmap",
            **self.PATTERN_KW,
        )
        assert got == expected
        assert recorded  # a temp spill happened...
        for path in recorded:
            assert not os.path.exists(path)  # ...and was unlinked

    def test_count_many_recovers_to_exact_totals(
        self, monkeypatch, chunks_per_worker
    ):
        g = erdos_renyi(40, 0.2, seed=5)
        patterns = generate_all_vertex_induced(3)
        expected = {
            p: count(g, p, edge_induced=False) for p in patterns
        }
        monkeypatch.setenv(parallel.FAULT_ENV, "0:0")
        got = process_count_many(
            g,
            patterns,
            num_processes=2,
            edge_induced=False,
        )
        assert got == expected

    def test_malformed_fault_spec_rejected(self, monkeypatch):
        g, _ = self._graph_and_expected()
        monkeypatch.setenv(parallel.FAULT_ENV, "nonsense")
        with pytest.raises(ValueError, match="worker:chunk"):
            process_count(g, generate_clique(3), **self.PATTERN_KW)


class TestCensusTierUnderProcesses:
    """The compiled workload ships to workers whole, so the census tier
    works under processes: workers count the anti-edge-free basis per
    chunk and the parent inverts once, over the sums of *all* chunks —
    and never over anything less."""

    def _workload(self):
        g = erdos_renyi(48, 0.2, seed=9)
        motifs = generate_all_vertex_induced(4)
        return g, motifs, MiningSession(g).count_many(
            motifs, edge_induced=False, engine="reference"
        )

    def _jobs(self, monkeypatch):
        jobs = []
        drain = parallel._tolerant_count

        def recording(ctx, num_workers, handle, job, cancel):
            jobs.append(job)
            return drain(ctx, num_workers, handle, job, cancel)

        monkeypatch.setattr(parallel, "_tolerant_count", recording)
        return jobs

    @pytest.mark.parametrize("share_mode", SHARE_MODES)
    def test_induced_census_equals_in_process_and_survives_a_crash(
        self, share_mode, monkeypatch
    ):
        _skip_unless_fork_available(share_mode)
        g, motifs, expected = self._workload()
        jobs = self._jobs(monkeypatch)
        session = MiningSession(g)

        def run():
            return process_count_many(
                session, motifs, num_processes=2, edge_induced=False,
                share_mode=share_mode,
            )

        assert run() == expected == session.count_many(motifs, edge_induced=False)
        monkeypatch.setenv(parallel.FAULT_ENV, "0:0")
        assert run() == expected
        # What the workers ran: the whole group on the basis, every plan
        # edge-induced and anti-edge-free (tail arithmetic, no membership
        # kernels), one lease-board slot per basis member.
        multi = jobs[0].multi
        assert multi.direct == ((),) and len(multi.census[0]) == len(motifs)
        assert all(
            plan.edge_induced and plan.matched_pattern.num_anti_edges == 0
            for plan in multi.members[0]
        )

    def test_session_verb_reaches_the_same_path(self):
        g, motifs, expected = self._workload()
        assert MiningSession(g).count_many(
            motifs, edge_induced=False, num_processes=2
        ) == expected

    def test_cancel_turns_the_tier_off(self, monkeypatch):
        g, motifs, expected = self._workload()
        jobs = self._jobs(monkeypatch)
        live = ExplorationControl()  # never fires: the run completes
        assert process_count_many(
            g, motifs, num_processes=2, edge_induced=False, cancel=live
        ) == expected
        assert jobs[0].multi.census == ((),)
        assert jobs[0].multi.transforms == (None,)
        with pytest.raises(QueryCancelledError) as info:
            process_count_many(
                g, motifs, num_processes=2, edge_induced=False,
                cancel=DeadlineControl(0.0),
            )
        assert info.value.partial.detail["totals"] == [0] * len(motifs)

    def test_crash_partial_never_inverts_an_incomplete_basis(self, monkeypatch):
        g, motifs, _ = self._workload()
        square = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        square.add_anti_edge(0, 2)  # explicit anti-edge: stays direct
        monkeypatch.setenv(parallel.FAULT_ENV, "*:1")
        with pytest.raises(WorkerCrashError) as info:
            process_count_many(
                g, [square, *motifs], num_processes=2, edge_induced=False,
            )
        partial = info.value.partial
        direct, *census = partial.detail["totals"]
        # exact-so-far for the direct member, "not available" for the
        # census members — a basis missing chunk 1 must not be inverted
        assert census == [None] * len(motifs)
        assert 0 <= direct <= count(g, square, edge_induced=False)
        assert partial == direct and partial.detail["failed_chunks"] == [1]


class _StopsAfterPolls(ExplorationControl):
    """A cancel token that fires on its ``polls``-th ``stopped`` read."""

    def __init__(self, polls):
        super().__init__()
        self._polls_left = polls

    @property
    def stopped(self):
        self._polls_left -= 1
        if self._polls_left <= 0:
            self.stop()
        return super().stopped


class TestCancellation:
    def test_pre_stopped_cancel_raises_with_all_chunks_pending(
        self, chunks_per_worker
    ):
        """A token fired before the drain starts: cancel stops the run
        and reports every chunk as pending."""
        g = erdos_renyi(60, 0.15, seed=6)
        with pytest.raises(QueryCancelledError) as info:
            process_count(
                g,
                generate_clique(3),
                num_processes=2,
                cancel=DeadlineControl(0.0),
            )
        partial = info.value.partial
        assert partial == 0
        assert partial.truncated
        assert partial.detail["pending_chunks"] > 0
        assert partial.detail["pending_chunks"] == partial.detail["num_chunks"]

    def test_mid_run_cancel_stops_workers_inside_their_chunks(
        self, chunks_per_worker
    ):
        # Many seconds of exact work, cancelled ~100 ms into the drain
        # (50 bridge polls at 2 ms): the token lands while every worker
        # is inside a chunk, so only the engines' own polling stops them.
        g = erdos_renyi(500, 0.4, seed=6)
        p = generate_clique(5)
        with pytest.raises(QueryCancelledError) as info:
            process_count(
                g,
                p,
                num_processes=2,
                cancel=_StopsAfterPolls(50),
            )
        partial = info.value.partial
        assert partial.truncated and partial.reason == "cancelled"
        assert 1 <= partial.detail["pending_chunks"]
        assert partial.detail["pending_chunks"] <= partial.detail["num_chunks"]
        # Only fully-counted chunks are summed, so the partial can never
        # exceed the exact answer.
        assert partial == sum(partial.detail["totals"])

    def test_unstopped_cancel_changes_nothing(self, chunks_per_worker):
        g = erdos_renyi(60, 0.15, seed=6)
        expected = count(g, generate_clique(3))
        got = process_count(
            g,
            generate_clique(3),
            num_processes=2,
            cancel=ExplorationControl(),
        )
        assert got == expected

    def test_cancel_honored_when_the_pool_degenerates_to_one_process(self):
        """Regression: ``num_processes=1`` (asked for, or capped by the
        guard/plan) used to drop the token and return the full count."""
        g = erdos_renyi(80, 0.2, seed=1)
        p = generate_clique(3)
        assert count(g, p) == 668
        stopped = ExplorationControl()
        stopped.stop()
        with pytest.raises(QueryCancelledError) as info:
            process_count(g, p, num_processes=1, cancel=stopped)
        partial = info.value.partial
        assert partial.truncated and partial < 668
        assert partial.detail["pending_chunks"] == 1
        with pytest.raises(QueryCancelledError) as info:
            process_count_many(g, [p], num_processes=1, cancel=stopped)
        assert info.value.partial.detail["totals"] == [int(info.value.partial)]
        # An un-stopped token still changes nothing.
        assert process_count(
            g, p, num_processes=1, cancel=ExplorationControl()
        ) == 668

    def test_in_process_cancel_raises_only_when_an_engine_saw_the_stop(
        self, monkeypatch
    ):
        """A token that fires *after* a fully completed in-process run
        (a deadline elapsing on the way out) leaves the exact result —
        the pooled path likewise raises only with chunks pending."""
        g = erdos_renyi(80, 0.2, seed=1)
        cancel = ExplorationControl()
        real = MiningSession._execute

        def then_fire(self, *args, **kwargs):
            counts = real(self, *args, **kwargs)
            cancel.stop()
            return counts

        monkeypatch.setattr(MiningSession, "_execute", then_fire)
        assert process_count(
            g, generate_clique(3), num_processes=1, cancel=cancel
        ) == 668
        assert cancel.stopped

    def test_in_process_cancel_totals_are_per_plan_with_duplicates(self):
        g = erdos_renyi(80, 0.2, seed=1)
        p, q = generate_clique(3), pattern_p1()
        stopped = ExplorationControl()
        stopped.stop()
        with pytest.raises(QueryCancelledError) as info:
            process_count_many(g, [p, q, p], num_processes=1, cancel=stopped)
        totals = info.value.partial.detail["totals"]
        assert len(totals) == 3 and totals[0] == totals[2]


class TestAggregatorThread:
    def test_merges_local_values(self):
        global_agg = Aggregator()
        locals_ = [Aggregator(), Aggregator()]
        locals_[0].map_pattern("x", 2)
        locals_[1].map_pattern("x", 3)
        with AggregatorThread(global_agg, locals_, interval=0.001):
            time.sleep(0.02)
        assert global_agg.get("x") == 5

    def test_on_update_hook_runs(self):
        global_agg = Aggregator()
        local = Aggregator()
        local.map_pattern("k", 1)
        seen = []
        t = AggregatorThread(
            global_agg, [local], interval=0.001, on_update=lambda a: seen.append(a.get("k"))
        )
        t.start()
        time.sleep(0.02)
        t.stop()
        assert seen and seen[-1] == 1


class TestTerminationHelpers:
    def test_stop_after_n(self):
        control = ExplorationControl()
        calls = []
        cb = stop_after_n_matches(control, 3, inner=calls.append)
        from repro.core import Match
        from repro.pattern import Pattern

        m = Match(Pattern.from_edges([(0, 1)]), (0, 1))
        for _ in range(3):
            cb(m)
        assert control.stopped
        assert len(calls) == 3

    def test_stop_when_aggregate(self):
        control = ExplorationControl()
        agg = Aggregator()
        hook = stop_when_aggregate(control, "n", lambda v: v >= 10)
        agg.map_pattern("n", 5)
        hook(agg)
        assert not control.stopped
        agg.map_pattern("n", 5)
        hook(agg)
        assert control.stopped

    def test_deadline_control(self):
        c = DeadlineControl(0.01)
        assert not c.stopped
        time.sleep(0.02)
        assert c.stopped


class TestAggregator:
    def test_custom_combine(self):
        agg = Aggregator(combine=max)
        agg.map_pattern("k", 3)
        agg.map_pattern("k", 1)
        assert agg.get("k") == 3

    def test_merge_from_drains_source(self):
        a, b = Aggregator(), Aggregator()
        b.map_pattern("k", 4)
        a.merge_from(b)
        assert a.get("k") == 4
        assert len(b) == 0

    def test_result_snapshot(self):
        agg = Aggregator()
        agg.map_pattern("a", 1)
        snap = agg.result()
        agg.map_pattern("b", 2)
        assert snap == {"a": 1}
        assert agg.keys() == ["a", "b"]
