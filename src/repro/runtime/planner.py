"""Cost-model-driven query planning: one probe chooses the whole run.

This is the second half of the virt-graph ``estimator``/``guards`` idiom
(ROADMAP item 2).  PR 7 built the bounded probe walk
(:func:`repro.runtime.guards.estimate_cost`) for *admission* — refuse or
downgrade predicted-explosive queries.  This module spends the same
probe on *planning*: the measurements the probe already takes (predicted
level-1 volume, second-level growth trend, hub skew, frontier size) are
exactly the signals the fixed dispatch thresholds
(:data:`~repro.core.session.ACCEL_BATCH_MIN_AVG_DEGREE`,
:data:`~repro.runtime.scheduler.CHUNKS_PER_WORKER`) approximate with
*graph-global* statistics — so a per-query :class:`QueryPlan` can beat
them precisely where the pattern and the graph disagree:

* a labeled pattern whose frontier sits on a dense core of an otherwise
  near-forest graph (global average degree says "interpreter", the
  measured per-start expansion says "batched engine");
* a labeled pattern whose frontier is a sparse sliver of a dense graph
  (global degree says "numpy", the measured level-1 volume says the
  interpreter finishes before numpy dispatch warms up);
* a uniform frontier that does not need work-stealing (one static
  stride chunk per worker) vs. a hub-skewed one that does;
* a worker budget larger than the work (the plan caps the pool instead
  of paying fork start-up for idle processes).

``ExecOptions.plan="auto"`` turns the planner on; the default
``"fixed"`` keeps the historical thresholds as the ablation baseline.
The probe is cached per ``(pattern signature, matching flags)`` on the
session, and admission (:func:`~repro.runtime.guards.admit`) and
planning share one cached estimate — a guarded planned query probes
exactly once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import guards
from .scheduler import CHUNKS_PER_WORKER

__all__ = [
    "QueryPlan",
    "plan_query",
    "plan_workload",
    "apply_plan",
    "explain",
    "batch_worthwhile",
    "PLANNER_CHOICES",
    "MIN_BATCH_EXPANSION",
    "TINY_LEVEL1_VOLUME",
    "SKEW_DYNAMIC_THRESHOLD",
    "TIGHTEN_PARTIALS",
    "PLANNED_FRONTIER_CHUNK",
    "WORK_PER_WORKER",
    "STEAL_CHUNKS_PER_WORKER",
    "APPROX_PARTIALS_PER_SECOND",
    "AUTO_APPROX_REL_ERR",
]

PLANNER_CHOICES = ("fixed", "auto")

# The batched engine's crossover in probe units.  The probe measures
# level-1 candidates per start (neighbors *below* the start under
# symmetry breaking — about half the degree), so the measured analogue
# of ACCEL_BATCH_MIN_AVG_DEGREE (average degree 2.0) is one candidate
# per start.  Unlike the global threshold, this is evaluated on the
# pattern's own (label-filtered) frontier.
MIN_BATCH_EXPANSION = 1.0

# Below this much total level-1 work, interpreter bisect/slice loops
# finish before numpy per-dispatch overhead amortizes — keep such
# queries on the reference engine regardless of density.
TINY_LEVEL1_VOLUME = 64.0

# Work-stealing pays when stragglers exist.  A frontier with hub starts
# (probe hub prefix non-empty) or with max/avg expansion skew at or
# above this ratio gets the dynamic schedule; uniform frontiers take
# static stride slices and skip the shared-cursor protocol.
SKEW_DYNAMIC_THRESHOLD = 4.0

# Above this predicted (unclamped) partial volume, bound per-dispatch
# frontier memory even for admitted queries.  Looser than the guard's
# DOWNGRADE_FRONTIER_CHUNK — this is pacing, not punishment.
TIGHTEN_PARTIALS = 1e6
PLANNED_FRONTIER_CHUNK = 8192

# Minimum level-1 rows per worker before another process is worth its
# fork/spawn start-up; the plan caps the pool at work/WORK_PER_WORKER.
WORK_PER_WORKER = 2048.0

# Chunks per worker on a skewed frontier: twice the default granularity
# (CHUNKS_PER_WORKER) so hub chunks steal in smaller units.
STEAL_CHUNKS_PER_WORKER = CHUNKS_PER_WORKER * 2

# Latency-budget routing (ROADMAP item 4 hooking into item 2's planner):
# the probe's raw partial prediction divided by this throughput is the
# planner's seconds-of-exact-work estimate; when it exceeds
# ``ExecOptions.latency_budget`` the query routes to the approximate
# tier at AUTO_APPROX_REL_ERR.  The throughput is a calibration
# constant in batched-engine partials per second — the order of
# magnitude measured across BENCH_engine/BENCH_planner hosts; it only
# needs to be right within a small factor, since latency budgets guard
# against queries predicted *orders* past them.
APPROX_PARTIALS_PER_SECOND = 2e6
AUTO_APPROX_REL_ERR = 0.05


@dataclass(frozen=True)
class QueryPlan:
    """One query's frozen execution choices, derived from one probe.

    ``engine`` is a concrete engine (``"reference"``/``"accel-batch"``,
    or ``"fused"`` for multi-pattern workloads) — never ``"auto"``.  ``num_workers`` never exceeds the caller's worker
    budget (the planner caps, it does not conscript).  ``reasons``
    records one line per choice for ``explain`` and the service echo.
    """

    engine: str
    schedule: str
    frontier_chunk: int | None
    chunk_hint: int | None
    num_workers: int
    reasons: tuple[str, ...] = ()
    estimate: guards.CostEstimate | None = None
    # Latency-budget routing: when True, a count-only run of this query
    # should answer from the approximate tier at ``approx_rel_err``
    # instead of running exact (see apply_plan's allow_approx).
    use_approx: bool = False
    approx_rel_err: float | None = None

    def as_dict(self) -> dict:
        """JSON-friendly form (service envelopes, bench artifacts)."""
        payload = {
            "engine": self.engine,
            "schedule": self.schedule,
            "frontier_chunk": self.frontier_chunk,
            "chunk_hint": self.chunk_hint,
            "num_workers": self.num_workers,
            "use_approx": self.use_approx,
            "approx_rel_err": self.approx_rel_err,
            "reasons": list(self.reasons),
        }
        if self.estimate is not None:
            payload["estimate"] = self.estimate.as_dict()
        return payload

    def describe(self) -> str:
        """One line for CLI output and logs."""
        chunk = "-" if self.frontier_chunk is None else self.frontier_chunk
        hint = "-" if self.chunk_hint is None else self.chunk_hint
        line = (
            f"engine={self.engine} schedule={self.schedule} "
            f"frontier_chunk={chunk} chunk_hint={hint} "
            f"workers={self.num_workers}"
        )
        if self.use_approx:
            line += f" approx={self.approx_rel_err:g}"
        return line


def _batch_worthy(estimate: guards.CostEstimate) -> bool:
    """Whether the frontier-batched engine wins on *this* frontier."""
    return (
        estimate.avg_expansion >= MIN_BATCH_EXPANSION
        and estimate.level1_volume >= TINY_LEVEL1_VOLUME
    )


def batch_worthwhile(estimates) -> bool:
    """Workload-level batch decision: any member's frontier qualifies.

    The fused runner walks one shared frontier per group; if any
    member's measured expansion clears the batched crossover, the
    shared gathers amortize for the whole group.
    """
    return any(_batch_worthy(est) for est in estimates)


def _choose_engine(estimate, opts, hooks_free: bool, reasons: list) -> str:
    if opts.engine != "auto":
        reasons.append(f"engine {opts.engine!r} pinned by caller")
        return opts.engine
    if not hooks_free:
        reasons.append("reference: stats/timer hooks pin the interpreter")
        return "reference"
    if estimate.level1_volume < TINY_LEVEL1_VOLUME:
        reasons.append(
            "reference: tiny level-1 volume "
            f"({estimate.level1_volume:.0f} rows < {TINY_LEVEL1_VOLUME:.0f})"
        )
        return "reference"
    if estimate.avg_expansion >= MIN_BATCH_EXPANSION:
        reasons.append(
            "accel-batch: measured level-1 expansion "
            f"{estimate.avg_expansion:.2f} >= {MIN_BATCH_EXPANSION:.2f} "
            f"over {estimate.frontier_size} starts"
        )
        return "accel-batch"
    reasons.append(
        "reference: measured level-1 expansion "
        f"{estimate.avg_expansion:.2f} below the batched crossover"
    )
    return "reference"


def _choose_workers(estimate, requested: int, reasons: list) -> int:
    if requested <= 1:
        return max(1, requested)
    if estimate.explosive:
        capped = min(requested, guards.DOWNGRADE_MAX_WORKERS)
        if capped < requested:
            reasons.append(
                f"workers {requested}->{capped}: predicted-explosive "
                "expansion caps the pool"
            )
        return capped
    work = max(estimate.level1_volume, float(estimate.frontier_size))
    by_work = max(1, int(work / WORK_PER_WORKER) + 1)
    capped = min(requested, estimate.frontier_size or 1, by_work)
    if capped < requested:
        reasons.append(
            f"workers {requested}->{capped}: ~{work:.0f} level-1 rows "
            f"do not feed {requested} workers"
        )
    return max(1, capped)


def _choose_schedule(
    estimate, workers: int, reasons: list
) -> tuple[str, int | None]:
    skewed = (
        estimate.hub_count > 0
        or estimate.hub_skew >= SKEW_DYNAMIC_THRESHOLD
    )
    if not skewed:
        reasons.append("static: uniform frontier, one stride chunk per worker")
        return "static", None
    chunk_hint = None
    if workers > 1 and estimate.frontier_size > workers:
        chunk_hint = max(
            1, estimate.frontier_size // (workers * STEAL_CHUNKS_PER_WORKER)
        )
    reasons.append(
        f"dynamic: {estimate.hub_count} hub starts, "
        f"expansion skew {estimate.hub_skew:.1f}"
    )
    return "dynamic", chunk_hint


def _choose_approx(estimate, opts, reasons: list) -> tuple[bool, float | None]:
    """Latency-budget routing: approximate when exact cannot fit.

    The caller already asking for ``approx`` passes through (the tier
    is engaged regardless of budgets); otherwise the probe's raw
    partial prediction, at :data:`APPROX_PARTIALS_PER_SECOND`, is the
    planner's predicted exact latency — past ``opts.latency_budget``
    the query routes to the sampling estimator at
    :data:`AUTO_APPROX_REL_ERR`.
    """
    if opts.approx is not None:
        reasons.append(f"approximate: rel_err={opts.approx:g} pinned by caller")
        return True, opts.approx
    if opts.latency_budget is None:
        return False, None
    predicted_seconds = (
        estimate.predicted_partials_raw / APPROX_PARTIALS_PER_SECOND
    )
    if predicted_seconds > opts.latency_budget:
        reasons.append(
            f"approximate: ~{estimate.predicted_partials_raw:.3g} "
            f"predicted partials (~{predicted_seconds:.3g}s exact) "
            f"exceed the {opts.latency_budget:g}s latency budget; "
            f"sampling at rel_err={AUTO_APPROX_REL_ERR:g}"
        )
        return True, AUTO_APPROX_REL_ERR
    reasons.append(
        f"exact: ~{predicted_seconds:.3g}s predicted fits the "
        f"{opts.latency_budget:g}s latency budget"
    )
    return False, None


def _choose_frontier_chunk(estimate, opts, reasons: list) -> int | None:
    chunk = opts.frontier_chunk
    if estimate.predicted_partials_raw > TIGHTEN_PARTIALS:
        planned = PLANNED_FRONTIER_CHUNK
        tightened = planned if chunk is None else min(chunk, planned)
        if tightened != chunk:
            reasons.append(
                f"frontier_chunk {chunk}->{tightened}: "
                f"~{estimate.predicted_partials_raw:.3g} predicted partials"
            )
        return tightened
    return chunk


def plan_query(
    graph_or_session,
    pattern,
    opts=None,
    *,
    estimate: guards.CostEstimate | None = None,
    num_workers: int = 1,
    **options,
) -> QueryPlan:
    """Plan one query from its (cached) probe estimate.

    ``opts`` is a resolved :class:`~repro.core.session.ExecOptions`;
    keyword ``options`` are the usual per-call overrides when ``opts``
    is not given.  ``estimate`` lets callers that already probed (the
    admission pass) share the walk — this is the no-double-probe path.
    ``num_workers`` is the caller's worker budget (process/thread
    count); the plan may cap it, never exceed it.
    """
    from ..core.session import as_session

    session = as_session(graph_or_session)
    if opts is None:
        opts = session.options(**options)
    elif options:
        raise TypeError("pass opts= or keyword options, not both")
    if estimate is None:
        estimate = session._guard_estimate(pattern, opts)
    hooks_free = opts.stats is None and opts.timer is None
    reasons: list[str] = []
    engine = _choose_engine(estimate, opts, hooks_free, reasons)
    workers = _choose_workers(estimate, num_workers, reasons)
    schedule, chunk_hint = _choose_schedule(estimate, workers, reasons)
    frontier_chunk = _choose_frontier_chunk(estimate, opts, reasons)
    use_approx, approx_rel_err = _choose_approx(estimate, opts, reasons)
    if opts.chunk_hint is not None:
        chunk_hint = opts.chunk_hint
    return QueryPlan(
        engine=engine,
        schedule=schedule,
        frontier_chunk=frontier_chunk,
        chunk_hint=chunk_hint,
        num_workers=workers,
        reasons=tuple(reasons),
        estimate=estimate,
        use_approx=use_approx,
        approx_rel_err=approx_rel_err,
    )


def plan_workload(
    graph_or_session,
    patterns,
    opts=None,
    *,
    estimates=None,
    num_workers: int = 1,
    **options,
) -> QueryPlan:
    """Plan a multi-pattern workload from its members' probes.

    The fused runner walks one shared frontier per compatible group, so
    the workload-level choices aggregate: the engine is ``"fused"`` when
    any member's frontier clears the batched crossover (shared gathers
    amortize for the whole group), the schedule is dynamic when any
    member sees hub skew, the worker budget is fed by the *summed*
    level-1 volume, and the frontier chunk is the tightest any member
    needs.
    """
    from ..core.session import as_session

    session = as_session(graph_or_session)
    if opts is None:
        opts = session.options(**options)
    elif options:
        raise TypeError("pass opts= or keyword options, not both")
    if estimates is None:
        seen: dict = {}
        for pattern in patterns:
            sig = pattern.signature()
            if sig not in seen:
                seen[sig] = session._guard_estimate(pattern, opts)
        estimates = list(seen.values())
    if not estimates:
        return QueryPlan(
            engine="reference",
            schedule=opts.schedule,
            frontier_chunk=opts.frontier_chunk,
            chunk_hint=opts.chunk_hint,
            num_workers=max(1, num_workers),
            reasons=("empty workload",),
        )
    hooks_free = opts.stats is None and opts.timer is None
    reasons: list[str] = []
    if opts.engine != "auto":
        engine = opts.engine
        reasons.append(f"engine {opts.engine!r} pinned by caller")
    elif hooks_free and batch_worthwhile(estimates):
        engine = "fused"
        reasons.append(
            "fused: at least one member frontier clears the batched "
            "crossover, shared gathers amortize for the group"
        )
    else:
        engine = "reference"
        reasons.append(
            "reference: no member frontier justifies the batched engine"
            if hooks_free
            else "reference: stats/timer hooks pin the interpreter"
        )
    combined = dataclasses.replace(
        max(estimates, key=lambda e: e.level1_volume),
        level1_volume=sum(e.level1_volume for e in estimates),
        frontier_size=max(e.frontier_size for e in estimates),
        hub_count=max(e.hub_count for e in estimates),
        hub_skew=max(e.hub_skew for e in estimates),
        predicted_partials=max(e.predicted_partials for e in estimates),
        predicted_partials_raw=max(
            e.predicted_partials_raw for e in estimates
        ),
    )
    workers = _choose_workers(combined, num_workers, reasons)
    schedule, chunk_hint = _choose_schedule(combined, workers, reasons)
    frontier_chunk = opts.frontier_chunk
    for est in estimates:
        frontier_chunk = _choose_frontier_chunk(
            est, dataclasses.replace(opts, frontier_chunk=frontier_chunk),
            reasons,
        )
    if opts.chunk_hint is not None:
        chunk_hint = opts.chunk_hint
    return QueryPlan(
        engine=engine,
        schedule=schedule,
        frontier_chunk=frontier_chunk,
        chunk_hint=chunk_hint,
        num_workers=workers,
        reasons=tuple(reasons),
        estimate=combined,
    )


def apply_plan(plan: QueryPlan, opts, allow_approx: bool = True):
    """Fold a plan's choices back into execution options.

    ``engine`` is always concrete after planning (``_choose_engine``
    echoes a caller-pinned engine through), and ``schedule``/
    ``frontier_chunk``/``chunk_hint`` carry the planned values — for
    knobs the caller pinned explicitly, the planner already kept them.
    A latency-budget routing decision (``plan.use_approx``) engages the
    sampling tier only when the caller's run can honor it
    (``allow_approx`` — count-only runs without hooks); enumeration
    verbs keep exact semantics and simply ignore the routing.
    """
    opts = dataclasses.replace(
        opts,
        engine=plan.engine,
        schedule=plan.schedule,
        frontier_chunk=plan.frontier_chunk,
        chunk_hint=plan.chunk_hint,
    )
    if (
        allow_approx
        and plan.use_approx
        and opts.approx is None
        and plan.approx_rel_err is not None
    ):
        opts = dataclasses.replace(opts, approx=plan.approx_rel_err)
    return opts


def explain(
    graph_or_session, pattern, num_workers: int = 1, **options
) -> QueryPlan:
    """The plan a query *would* run with, without running it.

    Powers the CLI ``explain`` verb and the service's plan echo: probe
    (or reuse the session-cached probe), admit nothing, run nothing —
    just return the frozen :class:`QueryPlan` with its estimate and
    reasons attached.
    """
    from ..core.session import as_session

    session = as_session(graph_or_session)
    opts = session.options(**options)
    return plan_query(session, pattern, opts, num_workers=num_workers)
