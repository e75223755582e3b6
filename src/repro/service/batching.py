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
3. the flushed batch is handed to the worker pool as **one** workload:
   one dispatch stage (probe → plan) and one execute over every member
   (count members deduplicated by pattern signature, match members
   carrying capped row collectors), and per-request results demultiplex
   back to each caller's future — each echoing the plan of that one
   stage, the plan that ran.

A request that runs alone is the same call over a workload of one.

**Error isolation.**  A batch member must never poison its siblings:

* a request carrying a contract for itself alone — a budget or
  deadline, ``guard="downgrade"``, ``approx`` or a ``latency_budget``,
  set by the request or by the session defaults — never coalesces: one
  meter cannot span strangers' work, and a downgrade or sampling route
  must reach only the member that asked;
* if the shared run fails, every member re-runs alone, so an error
  that only one member can trigger (say, a labeled pattern against an
  unlabeled graph, or a ``guard="refuse"`` refusal of one explosive
  member) surfaces on that member alone.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.callbacks import Budget
from ..core.session import MiningSession
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
    — like ``guard="downgrade"`` or an ``approx`` or ``latency_budget``
    option — makes the job run alone.  ``limit`` caps collected rows for ``match``.
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
    ``plan`` is the :class:`~repro.runtime.planner.QueryPlan` of the
    workload the job ran in — the one stage of its batch, or its own
    when it ran alone.
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
        if not self.enabled or _runs_alone(session, job):
            self.metrics.record_solo()
            [result], _ = await self.pool.run(_run_jobs, session, [job])
            return result

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


def _runs_alone(session: MiningSession, job: QueryJob) -> bool:
    """Whether ``job`` carries a contract for one request only.

    A budget meters, a downgrade guard caps or escalates to sampling,
    and ``approx`` or a ``latency_budget`` samples — each for the one
    member that asked.  In a shared walk it would meter, cap or estimate
    the siblings too.  A ``guard="refuse"`` job may batch: a refusal
    fails the shared run, and :func:`_run_batch`'s per-job fallback
    lands it on the explosive member alone.  Session defaults count as
    if the request had set them.
    """
    opts = session.defaults.merged(job.options)
    return (
        job.budget is not None
        or opts.budget is not None
        or opts.guard == "downgrade"
        or opts.approx is not None
        or opts.latency_budget is not None
    )


def _run_jobs(session: MiningSession, jobs: list[QueryJob]):
    """Run ``jobs`` as one workload: one stage, one execute.

    Every job shares the options of its bucket; a budget only ever
    arrives on a job that runs alone.  Count jobs with the same pattern
    signature share one member; each match job gets its own row
    collector, capped at its ``limit``.  Every result carries the
    :class:`QueryPlan` of the stage that ran.  Returns ``(results,
    deduped)``, where ``deduped`` counts jobs that shared a sibling's
    count member.
    """
    options = dict(jobs[0].options)
    if jobs[0].budget is not None:
        options["budget"] = jobs[0].budget
    patterns: list[Pattern] = []
    callbacks: list = []
    member_of: list[int] = []
    rows_of: dict[int, list] = {}
    count_member: dict[tuple, int] = {}
    for i, job in enumerate(jobs):
        if job.kind == "count":
            signature = job.pattern.signature()
            member = count_member.get(signature)
            if member is None:
                member = count_member[signature] = len(patterns)
                patterns.append(job.pattern)
                callbacks.append(None)
            member_of.append(member)
            continue
        rows = rows_of[i] = []

        def collect(match, rows=rows, limit=job.limit) -> None:
            if limit is None or len(rows) < limit:
                rows.append(list(match.mapping))

        member_of.append(len(patterns))
        patterns.append(job.pattern)
        callbacks.append(collect)

    staged = session._stage(
        patterns,
        session.defaults.merged(options),
        count_only=not rows_of,
    )
    totals = session._execute(staged, callbacks)
    results = []
    for i, member in enumerate(member_of):
        total = totals[member]
        approx = total.as_dict() if isinstance(total, ApproxCount) else None
        results.append(JobResult(
            int(total), staged.query_plan, rows=rows_of.get(i), approx=approx
        ))
    return results, len(jobs) - len(patterns)


def _run_batch(session: MiningSession, jobs: list[QueryJob]):
    """Execute one coalesced batch; per-job outcomes, never one verdict.

    Returns ``(outcomes, deduped)`` where ``outcomes[i]`` is the
    :class:`JobResult` or the exception for ``jobs[i]``.  If the shared
    run fails, blame may belong to one member only: each job re-runs
    alone, so errors land exactly where they arise.
    """
    try:
        return _run_jobs(session, jobs)
    except Exception:
        outcomes: list[Any] = []
        for job in jobs:
            try:
                [result], _ = _run_jobs(session, [job])
            except Exception as exc:
                result = exc
            outcomes.append(result)
        return outcomes, 0
