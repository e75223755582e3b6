"""Cost-model-driven query planning: one probe chooses the whole run.

Peregrine's point (§3–§4) is that the *system* derives how to explore
from the pattern and the graph.  The session's dispatch stage
(:meth:`repro.core.session.MiningSession._stage`) probes every query's
level-0 frontier once (:func:`repro.runtime.guards.probe`, cached per
``(pattern width, frontier, symmetry breaking)`` — what the probe
reads), lets
:func:`~repro.runtime.guards.admit` refuse or downgrade it, and hands
the same measurements to :func:`plan_workload`, which fills in every
choice the caller did not pin:

* **engine** — the frontier-batched engine, on every frontier however
  small and for any number of patterns; only the interpreter's own
  instruments (``stats``/``timer``) plan the interpreter;
* **frontier chunk** — tightened when the predicted partial volume is
  large;
* **workers** — sized from the measured work when the caller passed
  ``None``;
* **approximation** — a count-only query predicted past its
  ``latency_budget`` routes to the sampling tier.

Pins always win: an explicit ``engine``, ``frontier_chunk`` or integer
worker count is echoed through untouched.  Work placement is not a
choice: both runtimes pull degree-weighted chunks from
:class:`~repro.runtime.scheduler.ChunkLedger`.
The fixed global degree threshold the planner once used
(``avg_degree >= 2.0``) lives on only as the ablation baseline of
``benchmarks/bench_planner.py``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from ..core.session import INSTRUMENTS, as_session
from ..errors import MatchingError
from . import guards

__all__ = [
    "QueryPlan",
    "plan_query",
    "plan_workload",
    "apply_plan",
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
    """One query's frozen execution choices, derived from one probe.

    ``engine`` is a concrete engine (``"reference"``/``"accel-batch"``)
    — never ``"auto"``.  ``reasons`` records one line per choice for
    ``explain`` and the service echo; ``estimate`` is the probe behind
    them (the members' aggregate for a workload).
    """

    engine: str
    frontier_chunk: int | None
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
            "frontier_chunk": self.frontier_chunk,
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
        line = (
            f"engine={self.engine} frontier_chunk={chunk} "
            f"workers={self.num_workers}"
        )
        if self.use_approx:
            line += f" approx={self.approx_rel_err:g}"
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


def _choose_workers(estimate, num_workers: int | None, reasons: list) -> int:
    if num_workers is not None:
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


def _choose_approx(estimates, opts, reasons: list) -> tuple[bool, float | None]:
    """Latency-budget routing: approximate when exact cannot fit.

    The caller already asking for ``approx`` passes through (the tier
    is engaged regardless of budgets); otherwise the members' raw
    partial predictions, at :data:`APPROX_PARTIALS_PER_SECOND`, are the
    planner's predicted exact latency — past ``opts.latency_budget``
    the workload routes to the sampling estimator at
    :data:`AUTO_APPROX_REL_ERR`.
    """
    if opts.approx is not None:
        reasons.append(f"approximate: rel_err={opts.approx:g} pinned by caller")
        return True, opts.approx
    if opts.latency_budget is None:
        return False, None
    predicted = sum(est.predicted_partials_raw for est in estimates)
    seconds = predicted / APPROX_PARTIALS_PER_SECOND
    if seconds > opts.latency_budget:
        reasons.append(
            f"approximate: ~{predicted:.3g} predicted partials "
            f"(~{seconds:.3g}s exact) exceed the "
            f"{opts.latency_budget:g}s latency budget; "
            f"sampling at rel_err={AUTO_APPROX_REL_ERR:g}"
        )
        return True, AUTO_APPROX_REL_ERR
    reasons.append(
        f"exact: ~{seconds:.3g}s predicted fits the "
        f"{opts.latency_budget:g}s latency budget"
    )
    return False, None


def _choose_frontier_chunk(estimates, opts, reasons: list) -> int | None:
    if opts.frontier_chunk is not None:
        return opts.frontier_chunk
    predicted = max(est.predicted_partials_raw for est in estimates)
    if predicted > TIGHTEN_PARTIALS:
        reasons.append(
            f"frontier_chunk {PLANNED_FRONTIER_CHUNK}: "
            f"~{predicted:.3g} predicted partials"
        )
        return PLANNED_FRONTIER_CHUNK
    return None


def plan_workload(
    graph_or_session,
    patterns,
    opts=None,
    *,
    estimates=None,
    num_workers: int | None = 1,
    **options,
) -> QueryPlan:
    """Plan a workload of one or more patterns from its members' probes.

    ``opts`` is a resolved :class:`~repro.core.session.ExecOptions`;
    keyword ``options`` are the usual per-call overrides when ``opts``
    is not given.  ``estimates`` (one per pattern, aligned) lets the
    session's dispatch stage share the probes it already holds.  An
    integer ``num_workers`` is the caller's pool and is kept; ``None``
    asks the plan to size the pool from the measured work, up to the
    machine's core count.

    The batched executor walks one shared frontier per compatible
    group, so workload-level choices aggregate over the distinct
    members: workers fed by the *summed* level-1 volume and the frontier
    chunk the largest member prediction needs.  Every member runs on the
    workload's engine.
    """
    session = as_session(graph_or_session)
    if opts is None:
        opts = session.options(**options)
    elif options:
        raise TypeError("pass opts= or keyword options, not both")
    if estimates is None:
        _, estimates = session._estimates(patterns, opts)
    if not estimates:
        return QueryPlan(
            engine="accel-batch",
            frontier_chunk=opts.frontier_chunk,
            num_workers=max(1, num_workers or 1),
            reasons=("empty workload",),
        )
    distinct = list(dict(zip(patterns, estimates)).values())
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
    reasons: list[str] = []
    engine = _choose_engine(opts, reasons)
    use_approx, approx_rel_err = _choose_approx(distinct, opts, reasons)
    return QueryPlan(
        engine=engine,
        frontier_chunk=_choose_frontier_chunk(distinct, opts, reasons),
        num_workers=_choose_workers(combined, num_workers, reasons),
        reasons=tuple(reasons),
        estimate=combined,
        use_approx=use_approx,
        approx_rel_err=approx_rel_err,
    )


def plan_query(
    graph_or_session,
    pattern,
    opts=None,
    *,
    estimate: guards.CostEstimate | None = None,
    num_workers: int | None = 1,
    **options,
) -> QueryPlan:
    """Plan one query: the one-pattern case of :func:`plan_workload`."""
    return plan_workload(
        graph_or_session,
        [pattern],
        opts,
        estimates=None if estimate is None else [estimate],
        num_workers=num_workers,
        **options,
    )


def apply_plan(plan: QueryPlan, opts, allow_approx: bool = True):
    """Fold a plan's choices back into execution options.

    ``engine`` is always concrete after planning and ``frontier_chunk``
    carries the planned value — for knobs the caller
    pinned explicitly, the planner already kept them.  A latency-budget
    routing decision (``plan.use_approx``) engages the sampling tier
    only when the caller's run can honor it (``allow_approx`` —
    count-only runs without hooks); enumeration verbs keep exact
    semantics and simply ignore the routing.
    """
    approx = opts.approx
    if allow_approx and plan.use_approx and approx is None:
        approx = plan.approx_rel_err
    return dataclasses.replace(
        opts,
        engine=plan.engine,
        frontier_chunk=plan.frontier_chunk,
        approx=approx,
    )

