"""Cost-model-driven query planning: one probe chooses the whole run.

Peregrine's point (§3–§4) is that the *system* derives how to explore
from the pattern and the graph.  The session's dispatch stage
(:meth:`repro.core.session.MiningSession._stage`) probes every query's
level-0 frontier once (:func:`repro.runtime.guards.probe`, cached per
``(pattern width, frontier, symmetry breaking)`` — what the probe
reads) and hands the measurements to :func:`plan_workload`, the one
place that admits and plans a workload.  In one pass it applies
``ExecOptions.guard`` (``"refuse"`` raises for an explosive member,
``"downgrade"`` caps the chunk and the pool, and may escalate to
sampling) and fills in every choice the caller did not pin:

* **engine** — the frontier-batched engine, on every frontier however
  small and for any number of patterns; only the interpreter's own
  instruments (``stats``/``timer``) plan the interpreter;
* **frontier chunk** — tightened when the predicted partial volume is
  large;
* **workers** — sized from the measured work when the caller passed
  ``None``;
* **approximation** — a samplable count the guard escalates, or one
  predicted past its ``latency_budget``, routes to the sampling tier.

Pins always win: an explicit ``engine``, ``frontier_chunk``, ``approx``
or integer worker count is echoed through (a downgrade only tightens a
pinned chunk or pool).  The :class:`QueryPlan` is what the stage runs.
Work placement is not a choice: both runtimes pull degree-weighted
chunks from :class:`~repro.runtime.scheduler.ChunkLedger`.
The fixed global degree threshold the planner once used
(``avg_degree >= 2.0``) lives on only as the ablation baseline of
``benchmarks/bench_planner.py``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from ..core.session import INSTRUMENTS, OBSERVERS, as_session
from ..errors import MatchingError
from . import guards

__all__ = [
    "QueryPlan",
    "plan_query",
    "plan_workload",
    "TIGHTEN_PARTIALS",
    "PLANNED_FRONTIER_CHUNK",
    "WORK_PER_WORKER",
    "APPROX_PARTIALS_PER_SECOND",
    "AUTO_APPROX_REL_ERR",
]

# Above this predicted (unclamped) partial volume, bound per-dispatch
# frontier memory even for admitted queries.  Looser than the guard's
# DOWNGRADE_FRONTIER_CHUNK — this is pacing, not punishment.
TIGHTEN_PARTIALS = 1e6
PLANNED_FRONTIER_CHUNK = 8192

# Minimum level-1 rows per worker before another process is worth its
# fork/spawn start-up; a planner-sized pool is capped at
# work/WORK_PER_WORKER.
WORK_PER_WORKER = 2048.0

# Latency-budget routing: the probe's raw partial prediction divided by
# this throughput is the planner's seconds-of-exact-work estimate; when
# it exceeds ``ExecOptions.latency_budget`` the query routes to the
# approximate tier at AUTO_APPROX_REL_ERR.  The throughput is a
# calibration constant in batched-engine partials per second — the
# order of magnitude measured across BENCH_engine/BENCH_planner hosts;
# it only needs to be right within a small factor, since latency
# budgets guard against queries predicted *orders* past them.
APPROX_PARTIALS_PER_SECOND = 2e6
AUTO_APPROX_REL_ERR = 0.05


@dataclass(frozen=True)
class QueryPlan:
    """One workload's frozen execution choices, derived from one probe.

    ``engine`` is a concrete engine (``"reference"``/``"accel-batch"``)
    — never ``"auto"``.  ``approx`` is the sampling tier's target
    relative error when the run is answered by estimation, else
    ``None``.  ``reasons`` records one line per choice for ``explain``
    and the service echo; ``estimate`` is the probe behind them (the
    members' aggregate for a workload).
    """

    engine: str
    frontier_chunk: int | None
    num_workers: int
    reasons: tuple[str, ...] = ()
    estimate: guards.CostEstimate | None = None
    approx: float | None = None

    def as_dict(self) -> dict:
        """JSON-friendly form (service envelopes, bench artifacts)."""
        payload = {
            "engine": self.engine,
            "frontier_chunk": self.frontier_chunk,
            "num_workers": self.num_workers,
            "approx": self.approx,
            "reasons": list(self.reasons),
        }
        if self.estimate is not None:
            payload["estimate"] = self.estimate.as_dict()
        return payload

    def describe(self) -> str:
        """One line for CLI output and logs."""
        chunk = "-" if self.frontier_chunk is None else self.frontier_chunk
        line = (
            f"engine={self.engine} frontier_chunk={chunk} "
            f"workers={self.num_workers}"
        )
        if self.approx is not None:
            line += f" approx={self.approx:g}"
        return line


def _choose_engine(opts, reasons: list) -> str:
    """The one engine rule.  A pin wins (and says so when the run
    carries something that engine cannot honour); stats/timer hooks,
    which only the interpreter fills, plan the interpreter; everything
    else runs on the batched engine."""
    if opts.engine != "auto":
        rejected = () if opts.engine == "reference" else INSTRUMENTS
        if opts.hooks(*rejected):
            raise MatchingError(
                f"engine={opts.engine!r} does not support "
                f"{'/'.join(rejected)} overrides; use engine='auto' to "
                "let the plan choose an engine that does"
            )
        reasons.append(f"engine {opts.engine!r} pinned by caller")
        return opts.engine
    if opts.hooks(*INSTRUMENTS):
        reasons.append("reference: stats/timer hooks pin the interpreter")
        return "reference"
    reasons.append("accel-batch: no engine pin and no stats/timer hook")
    return "accel-batch"


def _choose_frontier_chunk(
    distinct, opts, downgrade: bool, reasons: list
) -> int | None:
    chunk = opts.frontier_chunk
    if chunk is None:
        predicted = max(est.predicted_partials_raw for est in distinct)
        if predicted > TIGHTEN_PARTIALS:
            reasons.append(
                f"frontier_chunk {PLANNED_FRONTIER_CHUNK}: "
                f"~{predicted:.3g} predicted partials"
            )
            chunk = PLANNED_FRONTIER_CHUNK
    cap = guards.DOWNGRADE_FRONTIER_CHUNK
    if downgrade and (chunk is None or chunk > cap):
        chunk = cap
        reasons.append(f"frontier_chunk {cap}: guard downgrade")
    return chunk


def _choose_workers(
    estimate, num_workers: int | None, downgrade: bool, reasons: list
) -> int:
    if num_workers is not None:
        if downgrade and num_workers > guards.DOWNGRADE_MAX_WORKERS:
            reasons.append(
                f"workers {guards.DOWNGRADE_MAX_WORKERS}: guard downgrade"
            )
            return guards.DOWNGRADE_MAX_WORKERS
        return max(1, num_workers)
    budget = os.cpu_count() or 1
    if estimate.explosive:
        reasons.append(
            "workers: predicted-explosive expansion caps the pool at "
            f"{guards.DOWNGRADE_MAX_WORKERS}"
        )
        return min(budget, guards.DOWNGRADE_MAX_WORKERS)
    work = max(estimate.level1_volume, float(estimate.frontier_size))
    by_work = int(work / WORK_PER_WORKER) + 1
    sized = max(1, min(budget, estimate.frontier_size, by_work))
    reasons.append(
        f"workers {sized} of {budget}: ~{work:.0f} level-1 rows at "
        f"{WORK_PER_WORKER:.0f} per worker"
    )
    return sized


def _choose_approx(
    distinct, opts, samplable: bool, downgrade: bool, reasons: list
) -> float | None:
    """The sampling route: the caller's ``approx``, or an escalation.

    A caller's ``approx`` passes through (a run that cannot honour it
    raises when it executes).  Otherwise only a samplable run is
    routed: by ``guard="downgrade"`` when a member is
    :data:`~repro.runtime.guards.DOWNGRADE_APPROX_FACTOR` past the
    explosive threshold, else when the raw partial predictions, at
    :data:`APPROX_PARTIALS_PER_SECOND`, exceed ``opts.latency_budget``.
    """
    if opts.approx is not None:
        reasons.append(f"approximate: rel_err={opts.approx:g} pinned by caller")
        return opts.approx
    if not samplable:
        return None
    if downgrade:
        hopeless = [
            est.predicted_partials for est in distinct
            if est.predicted_partials
            > est.threshold * guards.DOWNGRADE_APPROX_FACTOR
        ]
        if hopeless:
            reasons.append(
                f"approximate: guard downgrade — ~{max(hopeless):.3g} "
                "predicted partials are past "
                f"{guards.DOWNGRADE_APPROX_FACTOR:g}x the explosive "
                "threshold; sampling at "
                f"rel_err={guards.DOWNGRADE_APPROX_REL_ERR:g}"
            )
            return guards.DOWNGRADE_APPROX_REL_ERR
    if opts.latency_budget is None:
        return None
    predicted = sum(est.predicted_partials_raw for est in distinct)
    seconds = predicted / APPROX_PARTIALS_PER_SECOND
    if seconds > opts.latency_budget:
        reasons.append(
            f"approximate: ~{predicted:.3g} predicted partials "
            f"(~{seconds:.3g}s exact) exceed the "
            f"{opts.latency_budget:g}s latency budget; "
            f"sampling at rel_err={AUTO_APPROX_REL_ERR:g}"
        )
        return AUTO_APPROX_REL_ERR
    reasons.append(
        f"exact: ~{seconds:.3g}s predicted fits the "
        f"{opts.latency_budget:g}s latency budget"
    )
    return None


def plan_workload(
    graph_or_session,
    patterns,
    opts=None,
    *,
    estimates=None,
    num_workers: int | None = 1,
    count_only: bool = True,
    **options,
) -> QueryPlan:
    """Admit and plan a workload of one or more patterns from its probes.

    ``opts`` is a resolved :class:`~repro.core.session.ExecOptions`;
    keyword ``options`` are the usual per-call overrides when ``opts``
    is not given.  ``estimates`` (one per pattern, aligned) lets the
    session's dispatch stage share the probes it already holds.  An
    integer ``num_workers`` is the caller's pool and is kept; ``None``
    asks the plan to size the pool from the measured work, up to the
    machine's core count.  Only a ``count_only`` run that nothing
    observes (:data:`~repro.core.session.OBSERVERS`) may be routed to
    the sampling tier; the default answers what a count would do.

    The batched executor walks one shared frontier per compatible
    group, so workload-level choices aggregate over the distinct
    members: the first explosive one is refused, any explosive one
    downgrades the run, workers are fed by the *summed* level-1 volume
    and the frontier chunk is the one the largest member prediction
    needs.  Every member runs on the workload's engine.
    """
    session = as_session(graph_or_session)
    if opts is None:
        opts = session.options(**options)
    elif options:
        raise TypeError("pass opts= or keyword options, not both")
    if estimates is None:
        _, estimates = session._estimates(patterns, opts)
    distinct = list(dict(zip(patterns, estimates)).values())
    explosive = [est for est in distinct if est.explosive]
    if explosive and opts.guard == "refuse":
        raise guards.refusal(explosive[0])
    downgrade = bool(explosive) and opts.guard == "downgrade"
    reasons: list[str] = []
    engine = _choose_engine(opts, reasons)
    if not distinct:
        return QueryPlan(
            engine=engine,
            frontier_chunk=opts.frontier_chunk,
            num_workers=max(1, num_workers or 1),
            reasons=(*reasons, "empty workload"),
            approx=opts.approx,
        )
    if len(distinct) == 1:
        combined = distinct[0]
    else:
        combined = dataclasses.replace(
            max(distinct, key=lambda e: e.level1_volume),
            level1_volume=sum(e.level1_volume for e in distinct),
            frontier_size=max(e.frontier_size for e in distinct),
            hub_count=max(e.hub_count for e in distinct),
            hub_skew=max(e.hub_skew for e in distinct),
            predicted_partials=max(e.predicted_partials for e in distinct),
            predicted_partials_raw=max(
                e.predicted_partials_raw for e in distinct
            ),
        )
    chunk = _choose_frontier_chunk(distinct, opts, downgrade, reasons)
    workers = _choose_workers(combined, num_workers, downgrade, reasons)
    samplable = count_only and not opts.hooks(*OBSERVERS)
    approx = _choose_approx(distinct, opts, samplable, downgrade, reasons)
    return QueryPlan(
        engine=engine,
        frontier_chunk=chunk,
        num_workers=workers,
        reasons=tuple(reasons),
        estimate=combined,
        approx=approx,
    )


def plan_query(
    graph_or_session,
    pattern,
    opts=None,
    *,
    num_workers: int | None = 1,
    **options,
) -> QueryPlan:
    """Plan one query: the one-pattern case of :func:`plan_workload`."""
    return plan_workload(
        graph_or_session, [pattern], opts, num_workers=num_workers, **options
    )
