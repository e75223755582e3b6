"""Cross-request fused batching: one shared walk serves many callers.

The PR-4 fusion machinery amortizes frontier work *within* one
multi-pattern call (a motif census, an FSM round).  A service sees the
same opportunity *across* callers: sixteen concurrent ``count`` requests
against the same graph are exactly a sixteen-member multi-pattern
workload — identical patterns collapse to one member, compatible ones
share first-level gathers, census-eligible ones ride the shared
non-induced basis.  :class:`BatchingQueue` turns concurrent requests
into that workload:

1. an admitted request lands in the **bucket** for its ``(graph key,
   execution-options signature)`` — only requests that would run with
   identical semantics may share a walk;
2. the first request of a bucket arms a flush timer (``max_wait_ms``);
   the bucket flushes early when it reaches ``max_batch``;
3. the flushed batch is handed to the worker pool as **one**
   :meth:`~repro.core.session.MiningSession.match_many` call (count
   members deduplicated by pattern signature, match members carrying
   capped row collectors), and per-request results demultiplex back to
   each caller's future.

**Error isolation.**  A batch member must never poison its siblings:

* every member goes through the session's dispatch stage (probe →
  admit → plan) *on its own* before the fused call — a refused request
  gets its :class:`~repro.errors.QueryRefusedError` while the rest
  proceed, and a member the stage routes to the sampling tier is
  answered alone;
* budgeted / deadline-bearing requests are never coalesced (a budget is
  a per-request contract; one meter cannot span strangers' work) — they
  take the solo path;
* if the fused call itself fails, the batch falls back to per-request
  execution, so an error that only one member can trigger (say, a
  labeled pattern against an unlabeled graph) surfaces on that member
  alone.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.callbacks import Budget
from ..core.session import MiningSession
from ..errors import ReproError
from ..mining.sampling import ApproxCount
from ..pattern.pattern import Pattern
from ..runtime.planner import QueryPlan
from ..runtime.pool import QueryPool
from .metrics import ServiceMetrics

__all__ = [
    "BatchingQueue",
    "QueryJob",
    "JobResult",
    "DEFAULT_MAX_WAIT_MS",
    "DEFAULT_MAX_BATCH",
]

# How long the first request of a bucket waits for company, and the
# batch size that flushes immediately.  2ms is far below any mining
# walk's latency yet long enough for a closed-loop burst to pile in.
DEFAULT_MAX_WAIT_MS = 2.0
DEFAULT_MAX_BATCH = 64


@dataclass(frozen=True)
class QueryJob:
    """One mining request as the queue executes it.

    ``options`` are already-validated :class:`ExecOptions` overrides
    with hashable values (the handler layer whitelists them); ``budget``
    forces the solo path.  ``limit`` caps collected rows for ``match``.
    """

    kind: str  # "count" | "match"
    pattern: Pattern
    options: dict = field(default_factory=dict)
    limit: int | None = None
    budget: Budget | None = None


@dataclass
class JobResult:
    """What a job resolves to: the count, plus rows for match jobs.

    ``approx`` carries the :class:`~repro.mining.sampling.ApproxCount`
    envelope (estimate, stderr, ``ci_low``/``ci_high``,
    ``rel_err_achieved``) when the count was answered by the sampling
    tier — whether the caller asked (``approx`` option) or the stage
    auto-routed it (``latency_budget``, ``guard="downgrade"``).
    ``plan`` is the :class:`~repro.runtime.planner.QueryPlan` the job's
    own dispatch stage chose.
    """

    count: int
    plan: QueryPlan
    rows: list | None = None
    approx: dict | None = None


class _Bucket:
    """Requests coalescing toward one fused walk."""

    __slots__ = ("session", "items", "timer")

    def __init__(self, session: MiningSession):
        self.session = session
        self.items: list[tuple[QueryJob, asyncio.Future]] = []
        self.timer: asyncio.Task | None = None


class BatchingQueue:
    """The admission queue in front of a service's worker pool."""

    def __init__(
        self,
        pool: QueryPool,
        metrics: ServiceMetrics,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_batch: int = DEFAULT_MAX_BATCH,
        enabled: bool = True,
    ):
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.pool = pool
        self.metrics = metrics
        self.max_wait_ms = max_wait_ms
        self.max_batch = max_batch
        self.enabled = enabled
        self._buckets: dict[tuple, _Bucket] = {}
        self._inflight: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(
        self, key: str, session: MiningSession, job: QueryJob
    ) -> JobResult:
        """Run ``job`` against ``session``, coalescing when possible.

        Raises whatever the execution raised for *this* job alone —
        sibling failures never propagate here.
        """
        if (
            not self.enabled
            or job.budget is not None
            or job.options.get("approx") is not None
            or job.options.get("latency_budget") is not None
        ):
            # Approximate counts never coalesce: the estimator owns its
            # own frontier sampling (a fused batch shares one exact
            # walk), and its stopping rule is a per-request contract
            # exactly like a budget.
            self.metrics.record_solo()
            return await self.pool.run(_run_job, session, job)

        bkey = (key, _options_signature(job.options))
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._buckets.get(bkey)
        if bucket is None:
            bucket = _Bucket(session)
            self._buckets[bkey] = bucket
            bucket.timer = asyncio.create_task(self._flush_after_wait(bkey))
        bucket.items.append((job, future))
        if len(bucket.items) >= self.max_batch:
            self._flush(bkey)
        return await future

    async def solo(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run a non-batchable verb (exists, motifs, ...) on the pool."""
        self.metrics.record_solo()
        return await self.pool.run(fn, *args)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    async def _flush_after_wait(self, bkey: tuple) -> None:
        await asyncio.sleep(self.max_wait_ms / 1e3)
        self._flush(bkey, from_timer=True)

    def _flush(self, bkey: tuple, from_timer: bool = False) -> None:
        bucket = self._buckets.pop(bkey, None)
        if bucket is None:
            return
        if not from_timer and bucket.timer is not None:
            bucket.timer.cancel()
        task = asyncio.create_task(self._dispatch(bucket))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _dispatch(self, bucket: _Bucket) -> None:
        jobs = [job for job, _ in bucket.items]
        try:
            outcomes, deduped = await self.pool.run(
                _run_batch, bucket.session, jobs
            )
        except BaseException as exc:  # pool is gone, loop shutting down, ...
            for _, future in bucket.items:
                if not future.done():
                    future.set_exception(exc)
            return
        self.metrics.record_batch(len(jobs), deduped)
        for (_, future), outcome in zip(bucket.items, outcomes):
            if future.done():  # caller gave up (cancelled) meanwhile
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    async def close(self) -> None:
        """Flush every pending bucket and wait for in-flight batches."""
        for bkey in list(self._buckets):
            self._flush(bkey)
        if self._inflight:
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )


def _options_signature(options: dict) -> tuple:
    """The hashable identity of a request's execution semantics."""
    return tuple(sorted(options.items()))


# ----------------------------------------------------------------------
# Worker-side execution (runs on QueryPool threads)
# ----------------------------------------------------------------------


def _stage_job(session: MiningSession, job: QueryJob, options: dict):
    """One job's own probe → admit → plan: the staged query value.

    Only count jobs may be answered by the sampling tier (a budget is an
    observer: the stage keeps such a job exact).
    """
    return session._stage(
        [job.pattern],
        session.defaults.merged(options),
        count_only=job.kind == "count",
    )


def _run_job(session: MiningSession, job: QueryJob, staged=None):
    """One job on its own: the solo path and the isolation fallback.

    Stage once, execute what was staged (``staged``: a batch member's
    own stage, already done) — the plan echoed is the plan that ran.
    """
    if staged is None:
        overrides = dict(job.options)
        if job.budget is not None:
            overrides["budget"] = job.budget
        staged = _stage_job(session, job, overrides)
    if job.kind == "count":
        [value] = session._execute(staged)
        if isinstance(value, ApproxCount):
            return JobResult(
                int(value), staged.query_plan, approx=value.as_dict()
            )
        return JobResult(int(value), staged.query_plan)
    rows: list[list[int]] = []
    limit = job.limit

    def collect(match) -> None:
        if limit is None or len(rows) < limit:
            rows.append(list(match.mapping))

    [total] = session._execute(staged, [collect])
    return JobResult(int(total), staged.query_plan, rows=rows)


def _run_batch(session: MiningSession, jobs: list[QueryJob]):
    """Execute one coalesced batch; per-job outcomes, never one verdict.

    Returns ``(outcomes, deduped)`` where ``outcomes[i]`` is the
    :class:`JobResult` or the exception for ``jobs[i]``, and ``deduped``
    counts requests that shared a sibling's identical count member.
    """
    outcomes: list[Any] = [None] * len(jobs)
    shared = jobs[0].options  # all bucket members share one signature
    run_options = dict(shared)
    # The fused walk below runs the members the stage admitted here, so
    # it does not admit again.
    run_options["guard"] = "off"

    # Per-member stage: refusals surface on their own member only, a
    # member escalated to the sampling tier is answered alone, and a
    # downgrade tightens the shared walk's frontier chunk.
    admitted: list[int] = []
    stages: dict[int, Any] = {}
    for i, job in enumerate(jobs):
        try:
            staged = stages[i] = _stage_job(session, job, shared)
        except ReproError as exc:
            outcomes[i] = exc
            continue
        opts = staged.opts
        if opts.approx is not None:
            try:
                outcomes[i] = _run_job(session, job, staged)
            except Exception as exc:
                outcomes[i] = exc
            continue
        admitted.append(i)
        if opts.guard == "downgrade" and opts.frontier_chunk is not None:
            run_options["frontier_chunk"] = min(
                opts.frontier_chunk,
                run_options.get("frontier_chunk", opts.frontier_chunk),
            )

    # Build the fused workload: count members dedup by exact pattern
    # signature (concurrent identical queries pay one walk), match
    # members each carry their own capped row collector.
    patterns: list[Pattern] = []
    callbacks: list = []
    member_jobs: list[list[int]] = []
    collected_rows: dict[int, list] = {}
    count_member: dict[tuple, int] = {}
    for i in admitted:
        job = jobs[i]
        if job.kind == "count":
            signature = job.pattern.signature()
            member = count_member.get(signature)
            if member is None:
                count_member[signature] = len(patterns)
                patterns.append(job.pattern)
                callbacks.append(None)
                member_jobs.append([i])
            else:
                member_jobs[member].append(i)
            continue
        rows: list[list[int]] = []
        limit = job.limit

        def collect(match, _rows=rows, _limit=limit) -> None:
            if _limit is None or len(_rows) < _limit:
                _rows.append(list(match.mapping))

        collected_rows[i] = rows
        patterns.append(job.pattern)
        callbacks.append(collect)
        member_jobs.append([i])

    deduped = len(admitted) - len(patterns)
    if not patterns:
        return outcomes, 0

    try:
        totals = session.match_many(patterns, callbacks, **run_options)
    except Exception:
        # Isolation fallback: something in the fused call failed, and
        # blame may belong to one member only.  Run each admitted job
        # alone, from its own stage, so errors land exactly where they
        # arise.
        for i in admitted:
            try:
                outcomes[i] = _run_job(session, jobs[i], stages[i])
            except Exception as exc:
                outcomes[i] = exc
        return outcomes, 0

    for member, owners in enumerate(member_jobs):
        for i in owners:
            outcomes[i] = JobResult(
                int(totals[member]), stages[i].query_plan,
                rows=collected_rows.get(i),
            )
    return outcomes, deduped
