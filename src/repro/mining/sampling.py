"""Approximate counting on the real execution core (ROADMAP item 4).

ASAP [Iyer et al., OSDI '18] showed that pattern *counts* — the quantity
motif censuses, FSM support checks and service dashboards actually
consume — tolerate sampling: an unbiased estimator with an error bound
answers in a fraction of the exact run's time.  The estimators here run
*on the session's own execution core*, so everything the exact tier
amortizes (degree ordering, CSR view, plan cache, label-filtered
frontiers, fused multi-pattern walks) accelerates the approximate tier
too.

**Neighborhood sampling** is the one estimator, and ``approx=rel_err``
is an option of ``MiningSession.count`` / ``count_many`` — a single
count is the workload of one.  Every match is counted by the engines at
exactly one level-0 start vertex, so the per-start counts over the
(label-filtered, hub-first) frontier sum to the exact count.  The
estimator stratifies that frontier:

* the *hub prefix* (the first :data:`HUB_EXHAUST` starts — the frontier
  is hub-first, so these are the heavy, high-variance starts where
  power-law count mass concentrates) is counted **exactly**, once;
* the *tail* is sampled in rounds of :data:`ROUND_STARTS` starts drawn
  uniformly **with replacement**; each round's batch total, scaled by
  ``tail_size / round_size`` (the Horvitz–Thompson inverse inclusion
  weight), plus the exact hub total, is one i.i.d. unbiased estimate of
  the full count.

Rounds are the i.i.d. unit because the engines count whole start batches
without per-start attribution — one engine dispatch per round keeps the
vectorized tier's batching advantage.  Adaptive growth runs rounds until
the two-sided confidence interval (Student-t, ``ddof=1`` over round
estimates) is within the requested relative error, the sample budget is
exhausted, or the draws would cover the frontier — in which case the
estimator *finishes the tail exactly* and returns the exact count with a
zero-width interval (sampling never costs asymptotically more than
exact).

Estimation (``count_many(patterns, approx=rel_err)``;
:func:`approx_count_many` is its functional spelling) compiles the
workload with the
exact path's :class:`~repro.core.session.MultiPatternPlan` and serves
each group's hub pass and sampled rounds through its one fused executor
— this tier is a *driver*: it only picks the start vertices.  The
sampled frontier is shared by every member, and count-only
vertex-induced censuses ride the shared non-induced basis (Möbius
inversion is linear, so inverting per-round basis estimates yields
unbiased per-round induced estimates).
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.session import (
    ExecOptions,
    MiningSession,
    MultiPatternPlan,
    StagedQuery,
    as_session,
)
from ..errors import MatchingError
from ..pattern.pattern import Pattern

__all__ = [
    "ApproxCount",
    "approx_count",
    "approx_count_many",
    "DEFAULT_REL_ERR",
    "DEFAULT_CONFIDENCE",
    "MIN_ROUNDS",
    "ROUND_STARTS",
    "HUB_EXHAUST",
]

# Default accuracy target: 5% relative error at 95% two-sided confidence
# — ASAP's headline operating point (its 5% error runs are the ones
# compared against exact systems).
DEFAULT_REL_ERR = 0.05
DEFAULT_CONFIDENCE = 0.95

# Sampling geometry.  MIN_ROUNDS is the floor before the Student-t
# interval is trusted at all; ROUND_STARTS is the per-round draw count —
# large enough that one frontier-batched dispatch amortizes its numpy
# overhead, small enough that adaptive growth has real granularity.
MIN_ROUNDS = 4
ROUND_STARTS = 128

# Hub-prefix stratum size.  The frontier is hub-first, so the first
# entries are exactly the heavy-tailed starts whose per-start counts
# dominate both the total and the sampling variance on skewed graphs;
# counting them exactly removes that variance from the estimator for a
# bounded, known amount of work.  Never more than half the frontier (or
# half the sample budget), so there is always a tail left to sample.
HUB_EXHAUST = 1024

# Early-stop reasons carried on ApproxCount.early_stop.
STOP_TARGET = "target-met"
STOP_BUDGET = "max-samples"
STOP_EXHAUSTED = "exhausted-frontier"
STOP_EMPTY = "empty-frontier"


@dataclass(frozen=True)
class ApproxCount:
    """Outcome of one approximate counting run.

    ``estimate`` is the unbiased count estimate; ``stderr`` the standard
    error over sampling rounds; ``(ci_low, ci_high)`` the two-sided
    Student-t interval at ``confidence``.  ``rel_err`` is the *achieved*
    relative half-width (``0.0`` for exact results,``inf`` when the
    estimate is zero but uncertainty remains), ``requested_rel_err`` the
    target the run was asked to meet.  ``samples`` counts level-0 starts
    actually processed (hub prefix + sampled draws), ``rounds`` the
    i.i.d. sampling rounds behind ``stderr`` and ``hit_rate`` the
    fraction of rounds that saw at least one match.  ``exact=True`` means
    the run degenerated to an exact count (tiny frontier, or
    ``max_samples`` covered it) — the estimate then equals the exact
    count and the interval has zero width.  ``early_stop`` says why
    sampling stopped: ``"target-met"``, ``"max-samples"``,
    ``"exhausted-frontier"`` or ``"empty-frontier"``.

    ``int(result)`` rounds the estimate — session verbs stay usable in
    integer contexts whether or not ``approx`` was requested.
    """

    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    confidence: float
    rel_err: float
    requested_rel_err: float
    samples: int
    rounds: int
    frontier_size: int
    hit_rate: float
    exact: bool
    early_stop: str

    def __int__(self) -> int:
        return int(round(self.estimate))

    def __float__(self) -> float:
        return float(self.estimate)

    @property
    def ci(self) -> tuple[float, float]:
        """The two-sided interval as a ``(low, high)`` pair."""
        return (self.ci_low, self.ci_high)

    def within(self, exact: float, slack: float = 1.0) -> bool:
        """Whether ``exact`` lies inside ``slack`` × the interval."""
        half = (self.ci_high - self.ci_low) / 2.0
        return abs(self.estimate - exact) <= max(half * slack, 1e-9)

    def as_dict(self) -> dict:
        """JSON-friendly form (service envelopes, bench artifacts)."""
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
            "rel_err_achieved": self.rel_err,
            "requested_rel_err": self.requested_rel_err,
            "samples": self.samples,
            "rounds": self.rounds,
            "frontier_size": self.frontier_size,
            "hit_rate": self.hit_rate,
            "exact": self.exact,
            "early_stop": self.early_stop,
        }


# ----------------------------------------------------------------------
# Interval machinery
# ----------------------------------------------------------------------


def _z(confidence: float) -> float:
    """Two-sided normal quantile for ``confidence``."""
    return statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _t_quantile(confidence: float, df: int) -> float:
    """Student-t two-sided quantile via the Cornish–Fisher expansion.

    The round counts here are small (single digits), where the plain
    normal quantile undercovers noticeably; the second-order expansion
    ``z + (z^3 + z) / (4 df)`` recovers the t correction to well under a
    percent for df >= 3 without needing scipy.
    """
    z = _z(confidence)
    if df <= 0:
        return z
    return z + (z**3 + z) / (4.0 * df)


def _half_width(rounds: list[float], confidence: float) -> tuple[float, float]:
    """(stderr, CI half-width) over i.i.d. round estimates."""
    r = len(rounds)
    if r < 2:
        return float("inf"), float("inf")
    stderr = statistics.stdev(rounds) / math.sqrt(r)
    return stderr, _t_quantile(confidence, r - 1) * stderr


def _target_met(rounds: list[float], rel_err: float, confidence: float) -> bool:
    mean = statistics.fmean(rounds)
    if mean <= 0.0:
        return False
    stderr, half = _half_width(rounds, confidence)
    if stderr <= 0.0:
        # Zero observed round variance is false certainty, not accuracy —
        # e.g. hub-dominated counts where every tail draw so far returned
        # nothing.  Keep sampling until variance appears or the budget
        # runs out (degenerating to an exact tail pass when allowed).
        return False
    return half <= rel_err * mean


# ----------------------------------------------------------------------
# Option plumbing shared with the session verbs
# ----------------------------------------------------------------------

def _inner_opts(opts: ExecOptions) -> ExecOptions:
    """The options the per-round exact sub-runs execute under.

    ``opts`` went through the session's dispatch stage once, so its
    engine is concrete: the rounds run it directly over explicit
    ``start_vertices`` and never probe, admit or plan again.
    """
    return dataclasses.replace(
        opts,
        approx=None,
        max_samples=None,
        latency_budget=None,
        seed=None,
        guard="off",
        start_vertices=None,
    )


# ----------------------------------------------------------------------
# The stratified round estimator
# ----------------------------------------------------------------------


def _exact_results(
    totals: Sequence[int],
    samples: int,
    rounds: int,
    frontier_size: int,
    confidence: float,
    rel_err: float,
    early_stop: str,
) -> list[ApproxCount]:
    return [
        ApproxCount(
            estimate=float(total),
            stderr=0.0,
            ci_low=float(total),
            ci_high=float(total),
            confidence=confidence,
            rel_err=0.0,
            requested_rel_err=rel_err,
            samples=samples,
            rounds=rounds,
            frontier_size=frontier_size,
            hit_rate=1.0 if total else 0.0,
            exact=True,
            early_stop=early_stop,
        )
        for total in totals
    ]


def _member_result(
    rounds_j: list[float],
    hits_j: int,
    samples: int,
    frontier_size: int,
    confidence: float,
    rel_err: float,
    early_stop: str,
) -> ApproxCount:
    r = len(rounds_j)
    estimate = statistics.fmean(rounds_j) if r else 0.0
    stderr, half = _half_width(rounds_j, confidence)
    if half == 0.0 or (estimate <= 0.0 and half == 0.0):
        achieved = 0.0
    elif estimate <= 0.0:
        achieved = float("inf")
    else:
        achieved = half / estimate
    return ApproxCount(
        estimate=estimate,
        stderr=stderr,
        ci_low=estimate - half,
        ci_high=estimate + half,
        confidence=confidence,
        rel_err=achieved,
        requested_rel_err=rel_err,
        samples=samples,
        rounds=r,
        frontier_size=frontier_size,
        hit_rate=(hits_j / r) if r else 0.0,
        exact=False,
        early_stop=early_stop,
    )


def _estimate_group(
    run_members: Callable[[list[int]], list[int]],
    num_members: int,
    frontier,
    *,
    rel_err: float,
    confidence: float,
    max_samples: int | None,
    rng: random.Random,
    round_starts: int = ROUND_STARTS,
) -> list[ApproxCount]:
    """Run the stratified round loop for one shared-frontier group.

    ``frontier`` is the group's level-0 frontier array
    (:meth:`~repro.core.session.MiningSession._frontier`);
    ``run_members(starts)`` performs one exact executor pass over the
    given slice or draw of it and returns per-member totals.
    Duplicates in ``starts`` are counted multiply — exactly what
    with-replacement Horvitz–Thompson reweighting requires.
    """
    N = len(frontier)
    if N == 0:
        return _exact_results(
            [0] * num_members, 0, 0, 0, confidence, rel_err, STOP_EMPTY
        )
    budget = N if max_samples is None else max_samples
    allow_exact = budget >= N
    h = min(HUB_EXHAUST, N // 2, budget // 2)
    tail = N - h
    m = max(1, min(round_starts, tail))
    if not allow_exact:
        m = max(1, min(m, (budget - h) // MIN_ROUNDS))
    if (max_samples is not None and max_samples >= N) or (
        allow_exact and h + MIN_ROUNDS * m >= N
    ):
        # An explicit budget covering the whole frontier, or too little
        # tail to sample meaningfully — exact is cheaper than estimating.
        totals = run_members(frontier)
        return _exact_results(
            totals, N, 0, N, confidence, rel_err, STOP_EXHAUSTED
        )
    hub_totals = run_members(frontier[:h]) if h > 0 else [0] * num_members
    samples = h
    scale = tail / m
    per_round: list[list[float]] = [[] for _ in range(num_members)]
    hits = [0] * num_members
    early_stop = STOP_BUDGET
    while True:
        if samples + m > budget:
            if allow_exact:
                # The draws would cover the frontier: finish the tail
                # exactly instead — same answer as the exact verb.
                tail_totals = run_members(frontier[h:])
                totals = [
                    hub_totals[j] + tail_totals[j]
                    for j in range(num_members)
                ]
                return _exact_results(
                    totals,
                    samples + tail,
                    len(per_round[0]),
                    N,
                    confidence,
                    rel_err,
                    STOP_EXHAUSTED,
                )
            break
        starts = frontier[[h + rng.randrange(tail) for _ in range(m)]]
        totals = run_members(starts)
        samples += m
        for j in range(num_members):
            per_round[j].append(hub_totals[j] + totals[j] * scale)
            if totals[j]:
                hits[j] += 1
        if len(per_round[0]) >= MIN_ROUNDS and all(
            _target_met(per_round[j], rel_err, confidence)
            for j in range(num_members)
        ):
            early_stop = STOP_TARGET
            break
    return [
        _member_result(
            per_round[j], hits[j], samples, N, confidence, rel_err,
            early_stop,
        )
        for j in range(num_members)
    ]


# ----------------------------------------------------------------------
# Session entry point (what count/count_many(approx=...) route to)
# ----------------------------------------------------------------------


def approx_count_many_session(
    session: MiningSession,
    staged: StagedQuery,
    round_starts: int = ROUND_STARTS,
) -> list[ApproxCount]:
    """Estimate every pattern of a staged workload, in input order.

    The internal target of ``count(pattern, approx=...)`` (the workload
    of one) and ``count_many(patterns, approx=...)``: ``staged`` comes
    out of the session's dispatch stage, and its
    ``opts.approx``/``confidence``/``max_samples``/``seed`` drive the
    loop; a stage with match consumers or progress observers
    (``staged.samplable`` false) raises — an estimate has no matches to
    hand over.  The workload compiles exactly like the exact fused path
    (:meth:`~repro.core.session.MultiPatternPlan.build`: groups by
    pinned-start-label signature, census tier included — Möbius
    inversion is linear, so per-round restricted basis counts invert
    soundly *in expectation* once the Horvitz–Thompson scaling applies);
    this tier only chooses the start vertices.  Every group samples
    *one* shared frontier and all of its members stop together (the
    loop runs until every member meets the target, so shared rounds are
    never wasted).  The ``max_samples`` budget applies per group.  A
    staged engine other than ``"fused"`` runs each member on it over the
    same starts.  ``round_starts`` is the per-round draw count
    (:func:`approx_count_many` exposes it).
    """
    patterns, plans, opts, _, samplable = staged
    if not samplable:
        raise MatchingError(
            "approx=... is count-only: it does not support callbacks, "
            "batch consumers, budgets, controls, stats/timer hooks or "
            "explicit start_vertices"
        )
    inner = _inner_opts(opts)
    multi = MultiPatternPlan.build(session, patterns, plans, inner, min_group=1)
    rng = random.Random(opts.seed)
    results: list[ApproxCount | None] = [None] * len(patterns)
    for g, group in enumerate(multi.groups):

        def run(starts, g=g, group=group) -> list[int]:
            if opts.engine == "fused":
                totals = multi.demux(g, multi.run_group(
                    g, session.view, starts, chunk=inner.frontier_chunk
                ))
                return [int(totals[idx]) for idx in group]
            # one single-pattern executor pass per member
            o = dataclasses.replace(inner, start_vertices=starts)
            return [
                int(session._run_match_engines(multi.plans[idx], None, o, None))
                for idx in group
            ]

        group_results = _estimate_group(
            run,
            len(group),
            session._frontier(multi.group_keys[g]),
            rel_err=opts.approx,
            confidence=opts.confidence,
            max_samples=opts.max_samples,
            rng=rng,
            round_starts=round_starts,
        )
        for idx, result in zip(group, group_results):
            results[idx] = result
    return results


# ----------------------------------------------------------------------
# Functional surface (what the CLI and the benches call)
# ----------------------------------------------------------------------


def approx_count(
    graph_or_session,
    pattern: Pattern,
    rel_err: float = DEFAULT_REL_ERR,
    confidence: float = DEFAULT_CONFIDENCE,
    max_samples: int | None = None,
    seed: int | None = None,
    **options,
) -> ApproxCount:
    """Estimate ``pattern``'s count to ``rel_err`` relative error.

    The functional spelling of ``session.count(pattern, approx=rel_err,
    ...)``.  ``**options`` are the usual
    :class:`~repro.core.session.ExecOptions` overrides.
    """
    return as_session(graph_or_session).count(
        pattern, approx=rel_err, confidence=confidence,
        max_samples=max_samples, seed=seed, **options,
    )


def approx_count_many(
    graph_or_session,
    patterns: Sequence[Pattern],
    rel_err: float = DEFAULT_REL_ERR,
    confidence: float = DEFAULT_CONFIDENCE,
    max_samples: int | None = None,
    seed: int | None = None,
    round_starts: int = ROUND_STARTS,
    **options,
) -> dict[Pattern, ApproxCount]:
    """Estimate every pattern's count, sharing fused sampled walks.

    The functional spelling of ``session.count_many(patterns,
    approx=rel_err, ...)`` (see :func:`approx_count`), with the one
    geometry knob a caller sets: ``round_starts``, the per-round draw
    count — ``benchmarks/bench_approx.py`` measures its 150k-start
    census at 1,024.  Same stage, same sampling entry as the verb.
    """
    session = as_session(graph_or_session)
    patterns = list(patterns)
    opts = session.defaults.merged(
        dict(
            options, approx=rel_err, confidence=confidence,
            max_samples=max_samples, seed=seed,
        ),
        multi=True,
    )
    staged = session._stage(patterns, opts, count_only=True)
    return dict(zip(
        patterns, approx_count_many_session(session, staged, round_starts)
    ))
