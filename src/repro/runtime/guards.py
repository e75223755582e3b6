"""Admission guards: bounded probe walks that predict query cost.

The service tier (ROADMAP items 1–2) needs to know *before* running a
query whether it will explode — a 5-clique census on a power-law graph
can expand many orders of magnitude past its frontier size, and by the
time a deadline fires the box has already paid the memory bill.  This
module implements the probe half of the virt-graph ``estimator`` /
``guards`` idiom: :func:`estimate_cost` samples the query's level-0
frontier (a bounded walk — cost is ``O(sample)`` adjacency probes, never
proportional to the graph), measures first-level expansion and the
second-level growth trend, detects hubs, and extrapolates a predicted
partial-match volume.  :func:`admit` turns the estimate into a decision
for ``ExecOptions.guard``:

``"refuse"``
    raise :class:`~repro.errors.QueryRefusedError` up front when the
    prediction crosses :data:`EXPLOSIVE_PARTIALS` — admission control
    for the future service front-end.
``"downgrade"``
    run anyway, but tighten ``frontier_chunk`` to
    :data:`DOWNGRADE_FRONTIER_CHUNK` (bounding peak frontier memory),
    cap concurrent workers at :data:`DOWNGRADE_MAX_WORKERS`, and answer
    hopeless count-only queries from the sampling tier.
``"off"``
    admit everything (the default).

The estimator is deliberately simple and deterministic — evenly-spaced
sampling over the hub-first frontier, pure-Python adjacency probes,
geometric extrapolation.  Every query is probed once per ``(pattern
width, frontier, symmetry breaking)`` — everything :func:`probe` reads —
by the session's dispatch stage
(:meth:`repro.core.session.MiningSession._stage`), and the measurements
serve two consumers: :func:`admit` (triage, conservative by design) and
:mod:`repro.runtime.planner` (engine/chunk/worker selection
from the same probe).  The planner consumes the *unclamped*
extrapolation (``predicted_partials_raw``) while admission keeps the
conservative growth floor in ``predicted_partials``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..bitmap import hub_degree_threshold
from ..errors import QueryRefusedError
from ..pattern.pattern import Pattern

__all__ = [
    "CostEstimate",
    "estimate_cost",
    "probe",
    "resolve_threshold",
    "admit",
    "refusal",
    "EXPLOSIVE_PARTIALS",
    "DOWNGRADE_FRONTIER_CHUNK",
    "DOWNGRADE_MAX_WORKERS",
    "DOWNGRADE_APPROX_FACTOR",
    "DOWNGRADE_APPROX_REL_ERR",
    "PROBE_SAMPLE",
]

# Starts sampled from the level-0 frontier per probe, and how many
# first-level candidates per start feed the second-level growth trend.
PROBE_SAMPLE = 64
PROBE_FANOUT_SAMPLE = 8

# Hub-prefix scan bound: the frontier is hub-first, so hubs form a
# prefix; scanning at most this many entries finds them all (or enough).
PROBE_HUB_SCAN = 4096

# Predicted partial matches above this are "explosive".  ~5e7 rows is
# minutes of batched-engine work and tens of GB of transient frontier on
# wide patterns — past any interactive budget.
EXPLOSIVE_PARTIALS = 5e7

# What "downgrade" does: frontier chunks shrink to this cap (bounding
# peak frontier memory at ~O(chunk) rows per level) and process pools
# cap their worker count (bounding memory multiplication across forks).
DOWNGRADE_FRONTIER_CHUNK = 2048
DOWNGRADE_MAX_WORKERS = 2

# The "approximate" escalation step of guard="downgrade": count-only
# queries predicted this many times past the explosive threshold are
# beyond what chunk/worker pacing can save — the session answers them
# from the sampling tier instead, at DOWNGRADE_APPROX_REL_ERR target
# relative error (see repro.mining.sampling).
DOWNGRADE_APPROX_FACTOR = 16.0
DOWNGRADE_APPROX_REL_ERR = 0.05


@dataclass(frozen=True)
class CostEstimate:
    """What a bounded probe walk learned about one query.

    ``predicted_partials`` is the geometric extrapolation
    ``frontier_size * avg_expansion * growth^(levels beyond the first)``
    — the volume of partial matches the batched engine would
    materialize, which is the quantity that actually explodes (§5.1
    exploration is output-sensitive; partials are the work *and* the
    memory).  For admission the growth factor is floored at 1.0 (a
    shrinking frontier must not talk the guard out of refusing);
    ``predicted_partials_raw`` is the same extrapolation without the
    floor, for planners that need the honest trend.  ``level1_volume``
    (``frontier_size * avg_expansion``) and ``hub_skew``
    (``max_expansion / avg_expansion``) are the per-pattern planning
    signals the probe already measures.
    """

    frontier_size: int
    sampled: int
    pattern_vertices: int
    avg_expansion: float
    max_expansion: int
    growth: float
    hub_count: int
    hub_degree_floor: int
    predicted_partials: float
    threshold: float
    level1_volume: float = 0.0
    predicted_partials_raw: float = 0.0
    hub_skew: float = 0.0

    @property
    def explosive(self) -> bool:
        return self.predicted_partials > self.threshold

    def as_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["explosive"] = self.explosive
        return payload


def estimate_cost(
    graph_or_session,
    pattern: Pattern,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    sample: int = PROBE_SAMPLE,
    threshold: float | None = None,
) -> CostEstimate:
    """Probe one query's frontier; return a :class:`CostEstimate`.

    The standalone spelling of :func:`probe`: resolves the session's
    (cached) exploration plan and label-filtered frontier for
    ``pattern`` first.  The session's own dispatch stage already holds
    both and calls :func:`probe` directly.
    """
    # Deferred import: repro.runtime is imported by repro/__init__ after
    # repro.core, and guards must not force the cycle at module load.
    from ..core.session import as_session

    session = as_session(graph_or_session)
    plan = session._cached_plan(pattern, edge_induced, symmetry_breaking)
    return probe(
        session.ordered,
        pattern.num_vertices,
        session._frontier(session._frontier_key(plan)),
        symmetry_breaking=symmetry_breaking,
        sample=sample,
        threshold=threshold,
    )


def probe(
    ordered,
    width: int,
    starts,
    symmetry_breaking: bool = True,
    sample: int = PROBE_SAMPLE,
    threshold: float | None = None,
) -> CostEstimate:
    """The bounded level-0 walk behind every :class:`CostEstimate`.

    ``starts`` is the hub-first (label-filtered) frontier of a
    ``width``-vertex pattern on the degree-ordered graph ``ordered``
    (``None`` = every vertex).  Up to ``sample`` starts, evenly spaced
    so the hubs at the front are always represented, are each charged
    their first-level candidate count (neighbors below the start under
    symmetry breaking — the engines' level-1 expansion); the
    second-level growth trend averages the same measure over a few
    candidates of each sampled start.  Hubs are counted by scanning the
    frontier's hub prefix.  Work is ``O(sample * fanout-sample)``
    adjacency probes regardless of graph size.
    """
    if threshold is None:
        # Resolved at call time so tests (and deployments) can retune the
        # module-level threshold.
        threshold = EXPLOSIVE_PARTIALS
    n = ordered.num_vertices
    if starts is None:
        frontier = range(n - 1, -1, -1)
        frontier_size = n
    else:
        frontier = starts
        frontier_size = len(starts)
    if frontier_size == 0 or width <= 1:
        return CostEstimate(
            frontier_size=frontier_size,
            sampled=0,
            pattern_vertices=width,
            avg_expansion=0.0,
            max_expansion=0,
            growth=0.0,
            hub_count=0,
            hub_degree_floor=hub_degree_threshold(n),
            predicted_partials=float(frontier_size),
            threshold=threshold,
            level1_volume=0.0,
            predicted_partials_raw=float(frontier_size),
            hub_skew=0.0,
        )

    def fanout(v: int) -> int:
        # The engines' first-level expansion: candidates strictly below
        # the start under symmetry breaking; the full adjacency without.
        if symmetry_breaking:
            return len(ordered.neighbors_below(v, v))
        return ordered.degree(v)

    k = min(max(1, sample), frontier_size)
    # Rounded stride: index i*size//k is strictly increasing for k <=
    # size, so the k probes are distinct and evenly spaced across the
    # whole frontier.  (An integer step of size//k degrades to 1 when
    # size < 2k, turning the "even sample" into the first k consecutive
    # hub-prefix entries and inflating avg_expansion.)
    probe = [int(frontier[(i * frontier_size) // k]) for i in range(k)]

    expansions = [fanout(v) for v in probe]
    avg_expansion = sum(expansions) / len(probe)
    max_expansion = max(expansions)

    # Second-level growth: per-partial fanout averaged over a few
    # first-level candidates of each sampled start.
    growth_total = 0
    growth_count = 0
    for v in probe:
        below = ordered.neighbors_below(v, v)
        for w in below[:PROBE_FANOUT_SAMPLE]:
            growth_total += fanout(w)
            growth_count += 1
    growth = (growth_total / growth_count) if growth_count else 0.0

    hub_floor = hub_degree_threshold(n)
    hub_count = 0
    for i in range(min(frontier_size, PROBE_HUB_SCAN)):
        if ordered.degree(frontier[i]) >= hub_floor:
            hub_count += 1
        else:
            break  # hub-first order: the hubs are a prefix

    level1_total = avg_expansion * frontier_size
    deeper_levels = max(0, width - 2)
    predicted = level1_total
    predicted_raw = level1_total
    for _ in range(deeper_levels):
        # Admission floors the growth factor at 1.0 (conservative); the
        # raw extrapolation keeps sub-1.0 growth so planners see
        # shrinking frontiers as what they are.
        predicted *= max(growth, 1.0) if growth > 0 else 1.0
        predicted_raw *= growth if growth_count else 1.0
    return CostEstimate(
        frontier_size=frontier_size,
        sampled=len(probe),
        pattern_vertices=width,
        avg_expansion=avg_expansion,
        max_expansion=max_expansion,
        growth=growth,
        hub_count=hub_count,
        hub_degree_floor=hub_floor,
        predicted_partials=predicted,
        threshold=threshold,
        level1_volume=level1_total,
        predicted_partials_raw=predicted_raw,
        hub_skew=(max_expansion / avg_expansion) if avg_expansion > 0 else 0.0,
    )


def resolve_threshold(
    estimate: CostEstimate, threshold: float | None = None
) -> CostEstimate:
    """Re-resolve a cached estimate against the *current* threshold.

    Probe measurements are stable per probe input and safe to
    cache, but the explosive threshold is a deployment knob documented
    as "resolved at call time".  Callers holding a cached estimate must
    pass it through here before any admission decision so retuning
    :data:`EXPLOSIVE_PARTIALS` takes effect on warm sessions too.
    """
    if threshold is None:
        threshold = EXPLOSIVE_PARTIALS
    if estimate.threshold == threshold:
        return estimate
    return dataclasses.replace(estimate, threshold=threshold)


def refusal(estimate: CostEstimate) -> QueryRefusedError:
    """The refusal error for an explosive estimate (raised by callers)."""
    return QueryRefusedError(
        "query refused by admission guard: predicted "
        f"~{estimate.predicted_partials:.3g} partial matches "
        f"(threshold {estimate.threshold:.3g}; frontier "
        f"{estimate.frontier_size}, avg level-1 expansion "
        f"{estimate.avg_expansion:.1f}, growth {estimate.growth:.1f}, "
        f"{estimate.hub_count} hub starts)",
        estimate,
    )


def admit(estimate: CostEstimate, opts, count_only: bool = False):
    """Apply one guard decision to a run's options.

    Benign estimates pass ``opts`` through unchanged.  Explosive ones
    raise :class:`~repro.errors.QueryRefusedError` under
    ``guard="refuse"`` or return options with ``frontier_chunk``
    tightened to :data:`DOWNGRADE_FRONTIER_CHUNK` under
    ``guard="downgrade"``.  Chunk tightening paces an explosive query,
    but :data:`DOWNGRADE_APPROX_FACTOR` past the threshold the exact run
    is hopeless at any pacing: a ``count_only`` run (one that may
    legally return an estimate) is then answered from the sampling tier
    at :data:`DOWNGRADE_APPROX_REL_ERR` instead.
    """
    if opts.guard == "off" or not estimate.explosive:
        return opts
    if opts.guard == "refuse":
        raise refusal(estimate)
    chunk = opts.frontier_chunk
    approx = opts.approx
    if (
        count_only
        and approx is None
        and estimate.predicted_partials
        > estimate.threshold * DOWNGRADE_APPROX_FACTOR
    ):
        approx = DOWNGRADE_APPROX_REL_ERR
    return dataclasses.replace(
        opts,
        frontier_chunk=(
            DOWNGRADE_FRONTIER_CHUNK
            if chunk is None
            else min(chunk, DOWNGRADE_FRONTIER_CHUNK)
        ),
        approx=approx,
    )
