"""Concurrent matching runtime: thread pool + process pool (§5, Fig 12).

``parallel_match`` reproduces Peregrine's architecture faithfully: worker
threads pull degree-weighted frontier chunks from a shared atomic-counter
scheduler, run the engine with thread-local aggregators, and honor a
shared early-termination control.  When the plan picks the batched
engine the workers drive it over chunks of the level-0 frontier — numpy
kernels release the GIL, so the thread pool gets real parallelism on the
hot loop, and each worker's engine polls the shared control between
frontier blocks and per emitted match; forced ``engine="reference"``
runs stay on the interpreter, where CPython's GIL serializes the list
operations.  Caller stats/timer hooks are rejected: the pool keeps
per-thread stats of its own and merges them into the result.

Process-level scaling is ``process_count_many`` — worker processes that
share the graph with the parent (fork-inherited copy-on-write pages or
a re-mapped ``.rgx`` store — never per-worker graph pickling) and run
whole fused groups (motif censuses, FSM rounds) chunk-by-chunk over
their shared frontier walk.  ``process_count`` is its one-pattern case,
which the Figure 12 scalability benchmark uses.

**Work placement** is one layer, :mod:`repro.runtime.scheduler`, shared
by threads and processes: the frontier is cut into degree-weighted
chunks (:class:`~repro.runtime.scheduler.ChunkLedger`, same closing rule
as the engines' :func:`~repro.core.accel.bounded_slices`) and workers
*pull* chunk indices from a shared cursor until the queue drains —
``threading.Lock`` under threads, a ``multiprocessing.Value`` under
processes.  This work stealing absorbs stragglers on skewed graphs:
whoever finishes early keeps pulling, so one mega-hub task never holds
the whole run the way a fixed partition does
(``benchmarks/bench_parallel.py`` measures the gap against one).

Both entry points accept a :class:`~repro.core.session.MiningSession` in
place of the graph: the runtime then reuses the session's degree
ordering, id translation, derived arrays and plan cache instead of
re-deriving them per call (plain graphs resolve to their shared default
session).
Both resolve engine, frontier chunk and pool size through the
session's one dispatch stage
(:meth:`~repro.core.session.MiningSession._stage`): what the caller
passes explicitly is kept, ``None`` is planned from the probe.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..errors import (
    MatchingError,
    PartialResult,
    QueryCancelledError,
    WorkerCrashError,
)
from ..core.callbacks import Aggregator, ExplorationControl, Match, Stop
from ..core.engine import EngineStats
from ..core.session import MiningSession, MultiPatternPlan, as_session
from ..graph.binary_io import GraphStore, save_mmap
from ..graph.graph import DataGraph
from ..pattern.pattern import Pattern
from .aggregation import AggregatorThread
from .scheduler import ChunkLedger, LeaseBoard, ProcessCursor, TaskScheduler

__all__ = [
    "ParallelResult",
    "parallel_match",
    "process_count",
    "process_count_many",
    "FAULT_ENV",
    "MAX_CHUNK_RETRIES",
]

# Crash-tolerance knobs.  A chunk whose worker dies is requeued up to
# MAX_CHUNK_RETRIES times before the run gives up with WorkerCrashError
# (a chunk that kills every worker that touches it is a poison pill, not
# a transient crash).  FAULT_ENV is the deterministic fault-injection
# knob: "worker:chunk" (either side may be "*") makes the matching
# worker exit hard — os._exit, no cleanup, exactly like an OOM kill —
# immediately after leasing the matching chunk.
FAULT_ENV = "REPRO_FAULT_WORKER_DIE"
MAX_CHUNK_RETRIES = 2


@dataclass
class ParallelResult:
    """Outcome of a ``parallel_match`` run.

    ``engine`` records which engine the workers drove
    (``"reference"`` or ``"accel-batch"``); engine stats are a
    reference-engine feature, so ``stats`` counters are zero for
    vectorized runs.
    """

    matches: int
    num_threads: int
    stats: EngineStats
    engine: str
    aggregates: dict = field(default_factory=dict)
    per_thread_matches: list[int] = field(default_factory=list)
    per_thread_cpu: list[float] = field(default_factory=list)

    def load_imbalance(self) -> float:
        """Max-minus-min share of matches across threads (0 = perfect).

        Match counts are a *work placement* metric: hub tasks carry most
        matches, so skew here is expected.  The paper's §6.7 balance claim
        is about finish times — see :meth:`time_imbalance`.
        """
        if not self.per_thread_matches or self.matches == 0:
            return 0.0
        hi = max(self.per_thread_matches)
        lo = min(self.per_thread_matches)
        return (hi - lo) / self.matches

    def time_imbalance(self) -> float:
        """Relative gap between the busiest and idlest thread's CPU time.

        The paper reports a <=71 ms finish-time gap across threads; this
        is the analogous measure for our runtime (per-thread CPU seconds
        via ``time.thread_time``, so GIL wait time is excluded).
        """
        if not self.per_thread_cpu:
            return 0.0
        hi = max(self.per_thread_cpu)
        lo = min(self.per_thread_cpu)
        return 0.0 if hi == 0 else (hi - lo) / hi


def _ledger(session, key, num_workers: int) -> ChunkLedger:
    """The chunk table both runtimes cut from one frontier.

    ``key`` names the session's hub-first, label-filtered frontier
    (:meth:`~repro.core.session.MiningSession._frontier`).  Each start
    weighs ``degree + 1`` — the rule the fused runner bounds its slices
    by — so chunk extents track expected per-start cost.
    """
    frontier = session._frontier(key)
    return ChunkLedger.build(
        frontier,
        weights=session.ordered.degrees()[frontier] + 1,
        num_workers=num_workers,
    )


def parallel_match(
    graph: DataGraph | MiningSession,
    pattern: Pattern,
    num_threads: int | None = None,
    callback: Callable[[Match, Aggregator], None] | None = None,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    control: ExplorationControl | None = None,
    aggregate_interval: float = 0.005,
    on_update: Callable[[Aggregator], None] | None = None,
    engine: str | None = None,
    combine: Callable | None = None,
    global_aggregator: Aggregator | None = None,
) -> ParallelResult:
    """Match a pattern with ``num_threads`` worker threads.

    An integer ``num_threads`` runs exactly that many workers (only a
    session-level ``guard="downgrade"`` may cap them); ``None`` lets the
    plan size the pool from the probe's measured work volume, up to the
    machine's core count.

    ``callback(match, local_aggregator)`` runs on the worker thread that
    found the match; values it maps into the local aggregator surface in
    the global aggregate via the asynchronous aggregator thread.
    ``combine`` is the aggregators' reduction function (default:
    addition); because workers fold values in a nondeterministic
    interleaving, it must be order-insensitive (associative and
    commutative) for the aggregates to be deterministic —
    :meth:`repro.core.session.MiningSession.aggregate` routes its
    ``reduce`` through here when threaded.  ``global_aggregator``
    optionally supplies the destination aggregator (it must share
    ``combine``); callers spanning several runs — multi-pattern
    aggregates — pass one so ``on_update`` observes the *cumulative*
    totals rather than each run's private map.

    ``engine`` pins the run; ``None`` inherits the session's
    :class:`~repro.core.session.ExecOptions` default and ``"auto"`` is
    planned (see the module docstring): the batched engine — each
    chunk's numpy kernels run with the GIL released, so worker threads
    overlap on the hot loop instead of serializing, and a user
    ``control`` is polled between frontier blocks and per emitted match.
    Threads pull degree-weighted chunks from the shared scheduler
    (:data:`~repro.runtime.scheduler.CHUNKS_PER_WORKER` per thread).
    Reference-engine runs keep per-thread :class:`EngineStats`;
    vectorized runs report zero stats (see :class:`ParallelResult`).

    ``graph`` may be a :class:`~repro.core.session.MiningSession`, in
    which case its cached ordering, translation and plans are reused.
    """
    session = as_session(graph)
    opts = session.defaults.merged(
        dict(
            edge_induced=edge_induced,
            symmetry_breaking=symmetry_breaking,
            control=control,
            engine=engine,
        )
    )
    return _thread_match(
        session, pattern, opts, num_threads, callback, aggregate_interval,
        on_update, combine, global_aggregator,
    )


def _thread_match(
    session, pattern, opts, num_threads, callback, aggregate_interval,
    on_update, combine, global_aggregator,
) -> ParallelResult:
    """:func:`parallel_match` over resolved options — what a threaded
    :meth:`~repro.core.session.MiningSession.aggregate` hands over
    whole, so no knob is silently dropped on the way: the stage honours
    ``guard``, the frontier ``label_index``, the engines
    ``frontier_chunk`` and ``control``; what a thread pool cannot honour
    (it owns the frontier, the stats and the stopping rule) is rejected.
    """
    unsupported = opts.hooks(
        "stats", "timer", "plan", "start_vertices", "budget", "approx"
    )
    if unsupported:
        raise MatchingError(
            f"{sorted(unsupported)} not available under threads: drop the "
            "option(s) or run single-threaded"
        )
    staged = session._stage([pattern], opts, workers=num_threads)
    opts, [plan] = staged.opts, staged.plans
    num_threads = staged.query_plan.num_workers
    scheduler = TaskScheduler(
        _ledger(
            session, session._frontier_key(plan, opts.label_index), num_threads
        )
    )
    shared_control = (
        opts.control if opts.control is not None else ExplorationControl()
    )
    global_agg = (
        global_aggregator
        if global_aggregator is not None
        else Aggregator(combine=combine)
    )
    local_aggs = [Aggregator(combine=combine) for _ in range(num_threads)]
    local_stats = [EngineStats() for _ in range(num_threads)]
    thread_matches = [0] * num_threads
    thread_cpu = [0.0] * num_threads

    def worker(tid: int) -> None:
        local = local_aggs[tid]
        on_match = None
        if callback is not None:
            def on_match(m: Match) -> None:
                callback(m, local)

        total = 0
        cpu_begin = time.thread_time()
        while not shared_control.stopped:
            chunk = scheduler.next_chunk()
            if len(chunk) == 0:
                break
            # The session's one execute path, over this chunk.
            total += session._execute(staged._replace(opts=replace(
                opts,
                start_vertices=chunk,
                control=shared_control,
                stats=local_stats[tid],
            )), [on_match])[0]
        thread_matches[tid] = total
        thread_cpu[tid] = time.thread_time() - cpu_begin

    threads = [
        threading.Thread(target=worker, args=(tid,), name=f"matcher-{tid}")
        for tid in range(num_threads)
    ]
    agg_thread = AggregatorThread(
        global_agg, local_aggs, interval=aggregate_interval, on_update=on_update
    )
    agg_thread.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    agg_thread.stop()

    merged = EngineStats()
    for s in local_stats:
        merged.merge(s)
    return ParallelResult(
        matches=sum(thread_matches),
        num_threads=num_threads,
        stats=merged,
        aggregates=global_agg.result(),
        per_thread_matches=thread_matches,
        per_thread_cpu=thread_cpu,
        engine=opts.engine,
    )


# ----------------------------------------------------------------------
# Process-based scaling (Figure 12): real parallelism for the speedup
# curve.  Workers never receive a pickled graph; they get a *graph
# handle*:
#
# * ``share_mode="fork"`` (default where fork exists) hands children the
#   parent's degree-ordered graph as a plain reference — they inherit
#   its numpy buffers (and whatever derived arrays it has cached)
#   copy-on-write, so worker startup moves zero graph bytes no matter
#   how many processes run;
# * ``share_mode="mmap"`` (default elsewhere) hands them the path of an
#   on-disk ``.rgx`` store (the graph's own backing file when it is
#   already degree-sorted on disk, otherwise a temporary spill): workers
#   re-open and map the file, so all processes share one set of physical
#   pages through the OS page cache — zero copies, works under any start
#   method.
#
# Work placement is orthogonal: workers claim indices of degree-weighted
# frontier chunks from a shared ``ProcessCursor`` until drained.
#
# ``multiprocessing.Pool`` is the wrong substrate for fault tolerance —
# a worker that dies abruptly mid-task leaves the pool's ``map`` hung
# (or, on newer CPythons, kills the whole map with no record of which
# inputs finished).  Workers are therefore raw ``ctx.Process`` workers
# over a :class:`~repro.runtime.scheduler.LeaseBoard`: a worker *leases*
# a chunk before running it and lands the chunk's counts atomically with
# its done-mark, so after every worker exits the parent knows exactly
# which chunks never completed.  Those are requeued into a fresh round
# of workers (bounded by :data:`MAX_CHUNK_RETRIES` per chunk); when even
# respawning fails (fork/spawn returning ``OSError`` under resource
# exhaustion) the parent degrades to running the remaining chunks
# in-process.  Exact counts survive any single- or multi-worker crash
# because a chunk's count lands exactly once.
#
# Cancellation rides the same machinery: a shared one-way flag that
# workers poll between chunks and engines poll inside a chunk (each
# worker's :class:`~repro.core.callbacks.Stop` token reads it), raised
# from the caller's ``ExplorationControl`` by a parent-side thread.
# ----------------------------------------------------------------------

_SHARE_MODES = ("fork", "mmap")


@dataclass(frozen=True)
class _Job:
    """What every worker of one process run computes.

    ``multi`` is the compiled workload
    (:class:`~repro.core.session.MultiPatternPlan`): its groups share a
    level-0 frontier, ``ledgers[g]`` chunks group ``g``'s and
    ``offsets`` (prefix sums of the ledger lengths) makes chunk indices
    *global* across groups, so one cursor and one lease board serve the
    whole workload.  Nothing here is mutated, so the job reaches workers
    fork-inherited or pickled into spawn args alike.
    """

    multi: MultiPatternPlan
    ledgers: tuple
    offsets: tuple
    frontier_chunk: int | None

    @property
    def num_chunks(self) -> int:
        return self.offsets[-1]

    def group_of(self, index: int) -> int:
        """The group a global chunk index belongs to."""
        return bisect_right(self.offsets, index) - 1


def _chunk_runner(handle, job: _Job, stop: Stop | None):
    """The one worker initializer: open the graph handle, bind the job.

    ``handle`` is the fork-inherited degree-ordered graph or the path of
    a degree-sorted ``.rgx`` store to re-open (the mapped graph keeps its
    store alive, and is its own ordered graph).  Returns
    ``run_chunk(index) -> counts``: the chunk's group executed over the
    chunk's starts, one raw count per group member (census-tier basis
    plans included — the parent inverts, once, over the sums of every
    chunk).  ``stop`` reaches the engine of
    every chunk run, so a shared cancel flag stops workers *inside* a
    chunk — between frontier blocks — not just between chunks.
    """
    graph = handle if isinstance(handle, DataGraph) else GraphStore(handle).graph()

    def run_chunk(index: int):
        gi = job.group_of(index)
        return job.multi.run_group(
            gi,
            graph,
            job.ledgers[gi].chunk(index - job.offsets[gi]),
            chunk=job.frontier_chunk,
            stop=stop,
        )

    return run_chunk


def _parse_fault(spec: str | None):
    """Parse a ``"worker:chunk"`` fault spec (either side ``"*"``)."""
    if not spec:
        return None
    worker, sep, chunk = spec.partition(":")
    if not sep:
        raise ValueError(
            f"{FAULT_ENV} must be 'worker:chunk' (either side '*'), "
            f"got {spec!r}"
        )
    return (worker.strip(), chunk.strip())


def _fault(worker_id: int, chunk_index: int, spec) -> None:
    """Deterministic fault-injection seam: die hard when the spec matches.

    ``os._exit`` skips every handler and ``finally`` — the closest
    user-space stand-in for an OOM kill or segfault.  Runs right after a
    chunk lease so the death window the requeue protocol must cover
    (leased, not done) is always exercised.
    """
    if spec is None:
        return
    worker, chunk = spec
    if (worker == "*" or worker == str(worker_id)) and (
        chunk == "*" or chunk == str(chunk_index)
    ):
        os._exit(1)


def _tolerant_worker(
    worker_id, board, cursor, active, cancel_flag, fault_spec, handle, job
):
    """One crash-tolerant worker: claim, lease, run, land — repeat.

    ``active`` is this round's list of still-pending chunk indices; the
    cursor claims positions into it, so requeued rounds reuse the same
    protocol over a shrinking list.  ``cancel_flag`` (``None`` when
    nothing can cancel the run) arms the worker's stop token.  A chunk
    interrupted by cancellation is deliberately *not* completed — its
    count is partial — so the parent's partial total only ever sums
    fully-counted chunks.
    """
    stop = None if cancel_flag is None else Stop(flag=cancel_flag)
    run_chunk = _chunk_runner(handle, job, stop)
    while True:
        if stop is not None and stop.stopped:
            return
        pos = cursor.claim()
        if pos >= len(active):
            return
        index = active[pos]
        board.lease(index, worker_id)
        _fault(worker_id, index, fault_spec)
        counts = run_chunk(index)
        if stop is not None and stop.stopped:
            return
        board.complete(index, counts)


def _partial(totals, reason: str, chunks_done: int, **detail):
    """The structured partial of a stopped run: exact per-plan totals of
    the fully-counted chunks (summed as the value, listed in
    ``detail["totals"]`` — ``None`` for a census-tier member, whose
    count only exists once *every* chunk's basis counts are in)."""
    return PartialResult(
        sum(total for total in totals if total is not None),
        levels_completed=chunks_done,
        truncated=True,
        reason=reason,
        detail={**detail, "totals": list(totals)},
    )


def _cancelled(totals, pending_chunks: int, num_chunks: int):
    """The :class:`QueryCancelledError` both process paths raise."""
    return QueryCancelledError(
        f"query cancelled with {pending_chunks} of {num_chunks} "
        f"chunk(s) incomplete",
        _partial(
            totals,
            "cancelled",
            num_chunks - pending_chunks,
            pending_chunks=pending_chunks,
            num_chunks=num_chunks,
        ),
    )


def _tolerant_count(ctx, num_workers, handle, job: _Job, stop: Stop | None) -> list[int]:
    """The one lease drain: exact per-plan totals over ``job``'s chunks.

    Drives lease/requeue rounds of :func:`_tolerant_worker` processes
    until every chunk's counts have landed.  Raises
    :class:`~repro.errors.WorkerCrashError` when a chunk exhausts its
    retries and :class:`~repro.errors.QueryCancelledError` when the
    parent's ``stop`` token (linked to the caller's cancel, ``None``
    without one) stops with chunks outstanding — both carrying the exact
    totals of the fully-counted chunks as the structured partial
    (per-plan in ``partial.detail["totals"]``).
    """
    multi, num_chunks = job.multi, job.num_chunks
    # Each chunk's count slots hold one value per member of its group.
    slot_offsets = [0]
    for members, ledger in zip(multi.members, job.ledgers):
        for _ in range(len(ledger)):
            slot_offsets.append(slot_offsets[-1] + len(members))
    board = LeaseBoard(ctx, num_chunks, slot_offsets)
    fault_spec = _parse_fault(os.environ.get(FAULT_ENV))

    def totals_of(indices, complete=False):
        raw = [[0] * len(members) for members in multi.members]
        for index in indices:
            sums = raw[job.group_of(index)]
            for pos, value in enumerate(board.values(index)):
                sums[pos] += value
        totals: list = [None] * len(multi.plans)
        for gi, sums in enumerate(raw):
            # An incomplete basis never inverts: a partial reports the
            # direct members' exact-so-far sums only.
            solved = (
                multi.demux(gi, sums) if complete
                else dict(zip(multi.direct[gi], sums))
            )
            for idx, total in solved.items():
                totals[idx] = total
        return totals

    cancel_flag = None if stop is None else stop.flag
    pending = list(range(num_chunks))
    retries = [0] * num_chunks
    next_worker = 0
    bridge_stop = threading.Event()
    bridge = None
    if stop is not None:
        # Workers cannot see the caller's token — this thread raises the
        # shared flag they poll (Stop.stop sets it) once the token fires.
        def poll_cancel():
            while not bridge_stop.is_set():
                if stop.stopped:
                    stop.stop()
                    return
                bridge_stop.wait(0.002)

        bridge = threading.Thread(
            target=poll_cancel, name="cancel-bridge", daemon=True
        )
        bridge.start()
    try:
        while pending:
            if stop is not None and stop.stopped:
                break
            active = pending
            cursor = ProcessCursor(ctx)
            procs = []
            for _ in range(min(num_workers, len(active))):
                proc = ctx.Process(
                    target=_tolerant_worker,
                    args=(
                        next_worker, board, cursor, active, cancel_flag,
                        fault_spec, handle, job,
                    ),
                    name=f"tolerant-{next_worker}",
                )
                try:
                    proc.start()
                except OSError:
                    break
                next_worker += 1
                procs.append(proc)
            if not procs:
                # Respawn failed outright (fd/pid exhaustion): degrade to
                # in-process draining.  Fault injection is disabled here —
                # os._exit in the caller's process is not a recovery.
                _tolerant_worker(
                    next_worker, board, cursor, active, cancel_flag,
                    None, handle, job,
                )
                next_worker += 1
            else:
                for proc in procs:
                    proc.join()
            pending = board.pending(active)
            if stop is not None and stop.stopped:
                break
            failed = []
            for index in pending:
                retries[index] += 1
                if retries[index] > MAX_CHUNK_RETRIES:
                    failed.append(index)
            if failed:
                done = board.done_indices(num_chunks)
                raise WorkerCrashError(
                    f"{len(failed)} chunk(s) still incomplete after "
                    f"{MAX_CHUNK_RETRIES} requeue(s): workers keep dying "
                    f"on chunk(s) {failed[:8]}",
                    _partial(
                        totals_of(done),
                        "worker crash",
                        len(done),
                        failed_chunks=failed,
                        retries=MAX_CHUNK_RETRIES,
                        num_chunks=num_chunks,
                    ),
                )
    finally:
        bridge_stop.set()
        if bridge is not None:
            bridge.join()
    if pending:
        raise _cancelled(
            totals_of(board.done_indices(num_chunks)), len(pending), num_chunks
        )
    return totals_of(range(num_chunks), complete=True)


def _mmap_store(session):
    """An on-disk degree-ordered ``.rgx`` path for the session's graph.

    Returns ``(path, is_temp)``.  When the session's ordered graph is
    already backed by an on-disk store (a converted ``.rgx`` file
    whose ids are degree-sorted) the workers re-open that file directly
    and nothing is written.  Anything else — generated graphs, unsorted
    stores — is spilled to a temporary ``.rgx`` once; the caller must
    unlink it (workers keep their mappings alive across the unlink, so
    cleanup in a ``finally`` is safe even mid-run).
    """
    ordered = session.ordered
    store = ordered.backing_store
    if store is not None and ordered.is_degree_ordered():
        return store.path, False
    fd, path = tempfile.mkstemp(prefix="repro-graph-", suffix=".rgx")
    os.close(fd)
    save_mmap(ordered, path)
    return path, True


def process_count(
    graph: DataGraph | MiningSession,
    pattern: Pattern,
    num_processes: int | None = None,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    share_mode: str | None = None,
    cancel: ExplorationControl | None = None,
    guard: str | None = None,
) -> int:
    """Count matches with worker processes (true parallel speedup).

    The one-pattern case of :func:`process_count_many` — same graph
    sharing, crash tolerance, cancellation, guard and planning; see
    there for every knob.
    """
    return process_count_many(
        graph,
        [pattern],
        num_processes=num_processes,
        edge_induced=edge_induced,
        symmetry_breaking=symmetry_breaking,
        share_mode=share_mode,
        cancel=cancel,
        guard=guard,
    )[pattern]


def process_count_many(
    graph: DataGraph | MiningSession,
    patterns: Sequence[Pattern],
    num_processes: int | None = None,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    label_index: bool = True,
    share_mode: str | None = None,
    frontier_chunk: int | None = None,
    cancel: ExplorationControl | None = None,
    guard: str | None = None,
) -> dict[Pattern, int]:
    """Count every pattern with worker processes over fused frontier chunks.

    The process-level driver of the fused executor: patterns are grouped
    by shared level-0 frontier signature
    (:class:`~repro.core.session.MultiPatternPlan`), each
    group's hub-first, label-filtered frontier is cut into
    degree-weighted chunks, and worker processes pull chunks from one
    shared queue spanning *all* groups — every chunk runs its whole
    group through the one fused executor
    (:meth:`~repro.core.session.MultiPatternPlan.run_group`), so motif
    censuses and FSM-style pattern sets scale across cores without
    giving up the shared first-level gathers.  Pulling absorbs
    stragglers on skewed (power-law) graphs, where a fixed partition
    leaves one process holding the heaviest hub *and* its full share of
    everything else.  The workload is compiled exactly as the sequential
    ``count_many`` compiles it, census tier included: workers count the
    anti-edge-free basis per chunk and the parent inverts once, over the
    sums of *all* chunks (with ``cancel`` set the tier is off — a
    stopped basis must never invert).

    An integer ``num_processes`` runs exactly that many workers;
    ``None`` lets the plan size the pool from the measured work volume,
    up to the machine's core count.  A pool of one (asked for, planned,
    or capped by ``guard="downgrade"``) runs the sequential session
    path in-process.  ``frontier_chunk`` pins each worker engine's
    per-dispatch frontier bound exactly as in sequential runs; ``None``
    inherits the session's :class:`~repro.core.session.ExecOptions`
    default or is planned from the members' probes.

    ``share_mode`` picks the graph handle workers receive (see above):
    ``"fork"`` (default where fork exists) or ``"mmap"``.  A
    :class:`~repro.core.session.MiningSession` may be passed in place of
    the graph to reuse its cached ordering and plans.

    Runs are **crash-tolerant**: chunk leases over a shared
    :class:`~repro.runtime.scheduler.LeaseBoard` let the parent requeue
    any chunk whose worker died before its counts landed (bounded
    retries, then :class:`~repro.errors.WorkerCrashError` carrying the
    partial), so a mid-run worker death still yields the exact counts.
    ``cancel`` (any :class:`~repro.core.callbacks.ExplorationControl`,
    e.g. a :class:`~repro.runtime.termination.DeadlineControl`) is
    bridged into a shared flag workers honor *mid-chunk*; firing it with
    work outstanding raises :class:`~repro.errors.QueryCancelledError`
    with per-pattern partial totals in ``partial.detail["totals"]`` —
    from the in-process path too.  ``guard`` ("refuse" or "downgrade")
    applies the :mod:`~repro.runtime.guards` admission decision first —
    refusing predicted-explosive pattern sets or capping the worker
    count.  This driver counts exactly, whatever size its pool ends up:
    a session whose defaults carry ``approx`` raises
    :class:`~repro.errors.MatchingError`.
    """
    session = as_session(graph)
    patterns = list(patterns)
    opts = session.options(
        edge_induced=edge_induced,
        symmetry_breaking=symmetry_breaking,
        label_index=label_index,
        frontier_chunk=frontier_chunk,
        guard=guard,
    )
    if opts.approx is not None:
        # Only a session default can carry it here.  Rejected up front
        # so a pool of one and a real pool behave alike.
        raise MatchingError(
            "['approx'] not available under processes: drop the option or "
            "use count_many(approx=...) in process"
        )
    staged = session._stage(patterns, opts, workers=num_processes)
    return _process_drive(session, staged, share_mode, cancel)


def _process_drive(
    session: MiningSession,
    staged,
    share_mode: str | None = None,
    cancel: ExplorationControl | None = None,
) -> dict[Pattern, int]:
    """Execute a staged count-only workload on the planned process pool.

    ``staged`` is the :class:`~repro.core.session.StagedQuery` of
    ``session._stage(patterns, opts, workers=num_processes)`` — what
    :func:`process_count_many` builds from its keywords and what
    :meth:`~repro.core.session.MiningSession.count_many` hands over
    whole.  Returns ``{pattern: exact count}``.
    """
    has_fork = "fork" in multiprocessing.get_all_start_methods()
    if share_mode is None:
        share_mode = "fork" if has_fork else "mmap"
    if share_mode not in _SHARE_MODES:
        raise ValueError(
            f"share_mode must be one of {_SHARE_MODES}, got {share_mode!r}"
        )
    patterns, plans, opts = staged.patterns, staged.plans, staged.opts
    num_processes = staged.query_plan.num_workers
    if num_processes <= 1 or not patterns:
        # A pool of one is the in-process driver: it executes the stage
        # it already holds (admitted and planned once), under a token
        # that latches whether an engine saw the cancel.
        latch = None if cancel is None else Stop(cancel)
        if latch is not None:
            staged = staged._replace(opts=replace(opts, control=latch))
        counts = dict(zip(patterns, session._execute(staged)))
        if latch is not None and latch.seen:
            # Same contract as the pooled drain, with the whole run as
            # its one chunk: an engine saw the stop and wound down, so
            # what it returned is a partial.
            raise _cancelled([counts[p] for p in patterns], 1, 1)
        return counts

    # ``cancel`` can stop the run early, so it is compiled as what it is
    # — a control: the census tier stays off under it.
    multi = MultiPatternPlan.build(
        session, patterns, plans, replace(opts, control=cancel)
    )
    ledgers = tuple(
        _ledger(session, key, num_processes) for key in multi.group_keys
    )
    offsets = [0]
    for ledger in ledgers:
        offsets.append(offsets[-1] + len(ledger))
    job = _Job(multi, ledgers, tuple(offsets), opts.frontier_chunk)
    if share_mode == "fork":
        ctx = multiprocessing.get_context("fork")
        handle, spill = session.ordered, None
    else:
        ctx = multiprocessing.get_context("fork" if has_fork else "spawn")
        handle, is_temp = _mmap_store(session)
        spill = handle if is_temp else None
    # The parent's token: linked to ``cancel``, it raises a flag that
    # every worker's engine reads.
    stop = None if cancel is None else Stop(cancel, flag=ctx.Value("b", 0))
    try:
        totals = _tolerant_count(ctx, num_processes, handle, job, stop)
    finally:
        # The spill file is parent-owned: unlink it no matter how the
        # drain exits — including crash/cancel errors propagating out.
        # Workers that already mapped it keep their pages (POSIX
        # unlink-while-mapped), so a mid-run failure cannot leak it.
        if spill is not None:
            try:
                os.unlink(spill)
            except OSError:  # pragma: no cover - already gone
                pass
    return dict(zip(patterns, totals))
