"""Public matching API: ``match``, ``count``, ``exists`` (Figure 4).

These are the verbs every Peregrine program is written in.  ``match``
invokes a user callback per canonical match; ``count`` is the paper's
syntactic sugar for matching with a counter (and takes the engine's
enumeration-free counting fast path); ``exists`` stops at the first match.

Since the session redesign this module is a *one-shot shim layer*: every
function delegates to the pinned-graph session machinery in
:mod:`repro.core.session` via :meth:`MiningSession.for_graph`, which
caches the degree-ordered graph (with its derived arrays), exploration plans
and label-filtered start lists per graph.  Signatures here are stable —
existing programs keep working unchanged and transparently share those
caches; new code that issues several queries against one graph should
hold a :class:`~repro.core.session.MiningSession` directly.

The data graph is degree-ordered internally (§5.2) and matches are
translated back to the caller's vertex ids before callbacks see them.

**Engine dispatch.**  Two engines implement identical semantics: the
reference interpreter (:mod:`repro.core.engine`, the oracle and the
owner of the profiling hooks) and the frontier-batched
:class:`~repro.core.accel.FrontierBatchedEngine` (whole matching-order
levels per numpy dispatch).  With ``engine="auto"`` (the default) the
session's dispatch stage plans the engine per query from one bounded
probe of the pattern's own frontier
(:mod:`repro.runtime.planner`): the batched engine when the measured
level-1 expansion clears its crossover and no ``stats`` / ``timer`` is
attached (those instruments are only wired in the reference engine),
the interpreter otherwise.  An early-termination ``control`` is polled
by the batched engine between frontier blocks and per emitted match, so
``exists`` and capped enumerations batch too.  Benchmarks:
``bench_engine_frontier.py`` (``BENCH_engine.json``) and
``bench_planner.py`` (planned vs. the old fixed threshold).
``engine="reference"`` / ``engine="accel-batch"`` pin one engine
unconditionally (ablations, debugging); pinning the batched engine
raises when the run does not qualify.

**Multi-pattern fusion.**  The multi-pattern verbs (``count_many``,
``match_many``, ``match_batches_many``) additionally accept
``engine="fused"``: patterns sharing a level-0 frontier signature are
grouped by :class:`~repro.core.session.MultiPatternPlan` and run through
:func:`repro.core.accel.fused_run` — one frontier walk, shared
first-level gathers, per-pattern constraint masks — with count-only
vertex-induced censuses additionally rewritten onto the shared
non-induced basis (:mod:`repro.core.multipattern`).  ``engine="auto"``
fuses automatically for groups of at least
:data:`~repro.core.session.FUSED_MIN_GROUP` when the run qualifies;
measured in ``benchmarks/bench_multipattern.py`` →
``BENCH_multipattern.json``.

**Process scaling.**  These shims are single-process by design (their
signatures are frozen).  To scale across cores, hold a session and pass
``num_processes`` to :meth:`MiningSession.count_many`, or use the
runtimes directly — :func:`repro.runtime.parallel.process_count` /
:func:`~repro.runtime.parallel.process_count_many` — which place work
through the shared work-stealing chunk scheduler (measured in
``benchmarks/bench_parallel.py`` → ``BENCH_parallel.json``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from ..graph.graph import DataGraph
from ..pattern.pattern import Pattern
from .callbacks import ExplorationControl, Match
from .engine import EngineStats
from .plan import ExplorationPlan
from .session import FUSED_MIN_GROUP, MiningSession

__all__ = [
    "match",
    "count",
    "count_many",
    "match_many",
    "exists",
    "match_batches",
    "match_batches_many",
    "aggregate",
]


def match(
    graph: DataGraph,
    pattern: Pattern,
    callback: Callable[[Match], None] | None = None,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    control: ExplorationControl | None = None,
    stats: EngineStats | None = None,
    timer=None,
    plan: ExplorationPlan | None = None,
    start_vertices: Iterable[int] | None = None,
    label_index: bool = True,
    engine: str = "auto",
    frontier_chunk: int | None = None,
) -> int:
    """Find every canonical match of ``pattern`` in ``graph``.

    Invokes ``callback`` once per match (if given) and returns the number
    of matches found.  ``edge_induced=False`` requests vertex-induced
    matching (Theorem 3.1).  ``symmetry_breaking=False`` is the PRG-U
    ablation: all automorphic copies are reported.

    ``control`` enables early termination: a callback calling
    ``control.stop()`` halts remaining exploration (§5.3).  ``stats`` and
    ``timer`` attach profiling (Fig 1 counters, Fig 11 stage times).

    With ``label_index`` (default), labeled patterns seed tasks only from
    data vertices whose label can match a core top position — the same
    pruning G-Miner gets from its label index, without preprocessing the
    graph per query.  Disable to measure its effect (``bench_ablations``).

    ``frontier_chunk`` caps how many partial matches the frontier-batched
    engine expands per numpy dispatch (memory/locality trade-off;
    default :data:`repro.core.accel.ACCEL_FRONTIER_CHUNK`).  Ignored by
    the reference engine.
    """
    return MiningSession.for_graph(graph).match(
        pattern,
        callback,
        edge_induced=edge_induced,
        symmetry_breaking=symmetry_breaking,
        control=control,
        stats=stats,
        timer=timer,
        plan=plan,
        start_vertices=start_vertices,
        label_index=label_index,
        engine=engine,
        frontier_chunk=frontier_chunk,
    )


def count(
    graph: DataGraph,
    pattern: Pattern,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    stats: EngineStats | None = None,
    timer=None,
    plan: ExplorationPlan | None = None,
    engine: str = "auto",
    frontier_chunk: int | None = None,
) -> int:
    """Number of canonical matches of ``pattern`` in ``graph``.

    Equivalent to ``match`` with a counting callback, but lets the engine
    count final-step candidate sets without enumerating them.
    """
    return MiningSession.for_graph(graph).count(
        pattern,
        edge_induced=edge_induced,
        symmetry_breaking=symmetry_breaking,
        stats=stats,
        timer=timer,
        plan=plan,
        engine=engine,
        frontier_chunk=frontier_chunk,
    )


def count_many(
    graph: DataGraph,
    patterns: Sequence[Pattern],
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    engine: str = "auto",
) -> Mapping[Pattern, int]:
    """Count each pattern in turn; returns ``{pattern: count}``.

    This is the multi-pattern overload of the paper's ``count`` (used by
    motif counting, Fig 4e).  All patterns run through one shared
    session, so the degree ordering, its arrays and plan cache are derived
    once, not once per pattern — and compatible patterns *fuse* onto one
    shared frontier walk (``engine="auto"``/``"fused"``; see
    :meth:`MiningSession.match_many` for the dispatch rules and
    :data:`repro.core.session.FUSED_MIN_GROUP` for the group floor).
    """
    return MiningSession.for_graph(graph).count_many(
        patterns,
        edge_induced=edge_induced,
        symmetry_breaking=symmetry_breaking,
        engine=engine,
    )


def match_many(
    graph: DataGraph,
    patterns: Sequence[Pattern],
    callbacks: Sequence[Callable[[Match], None] | None] | None = None,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    engine: str = "auto",
    frontier_chunk: int | None = None,
) -> list[int]:
    """Match every pattern; per-pattern counts in input order.

    One-shot convenience over :meth:`MiningSession.match_many`:
    ``callbacks[i]`` fires per match of ``patterns[i]`` in exactly the
    order a standalone ``match`` would produce, while compatible
    patterns share one fused frontier walk.
    """
    return MiningSession.for_graph(graph).match_many(
        patterns,
        callbacks,
        edge_induced=edge_induced,
        symmetry_breaking=symmetry_breaking,
        engine=engine,
        frontier_chunk=frontier_chunk,
    )


def match_batches_many(
    graph: DataGraph,
    patterns: Sequence[Pattern],
    on_batches: Sequence[Callable],
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    engine: str = "auto",
    frontier_chunk: int | None = None,
) -> list[int]:
    """Stream every pattern's matches as arrays; per-pattern counts.

    One-shot convenience over :meth:`MiningSession.match_batches_many` —
    the array-native multi-pattern verb FSM rounds are built on.
    """
    return MiningSession.for_graph(graph).match_batches_many(
        patterns,
        on_batches,
        edge_induced=edge_induced,
        symmetry_breaking=symmetry_breaking,
        engine=engine,
        frontier_chunk=frontier_chunk,
    )


def exists(
    graph: DataGraph,
    pattern: Pattern,
    edge_induced: bool = True,
    engine: str = "auto",
) -> bool:
    """Whether at least one match exists; stops exploring at the first.

    This is the paper's existence-query idiom (Fig 4f): the callback fires
    ``stopExploration()`` on the first match.  The frontier-batched engine
    polls the control between frontier blocks and per emitted match, so
    ``engine="auto"`` dispatches this to the batched engine in its winning
    regime.  The trade: the expensive no-match case
    (full exploration) runs vectorized, while a quick-hit positive may
    explore up to one start vertex's task before its stop lands —
    ``engine="reference"`` remains the finest-grained stopper.
    """
    return MiningSession.for_graph(graph).exists(
        pattern, edge_induced=edge_induced, engine=engine
    )


def match_batches(
    graph: DataGraph,
    pattern: Pattern,
    on_batch,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    plan: ExplorationPlan | None = None,
    label_index: bool = True,
    engine: str = "auto",
    frontier_chunk: int | None = None,
) -> int:
    """Stream every canonical match as 2D numpy arrays; return the count.

    ``on_batch`` receives ``(rows, num_pattern_vertices)`` int64 arrays —
    column ``u`` is the data vertex matched to pattern vertex ``u`` (in
    the caller's vertex ids; ``-1`` for anti-vertices).  This is the
    array-native alternative to ``match``'s per-match callback: domain
    and aggregation consumers (FSM, motif tables) fold whole batches with
    vectorized group-bys instead of paying one Python call per match.

    When the frontier-batched engine serves the run, batches come
    straight off its final frontiers; otherwise matches are buffered into
    fixed-size row arrays over the fallback engine, so callers keep a
    single code path.  Batch boundaries and inter-batch order are
    unspecified; the row multiset equals ``match``'s match multiset.
    """
    return MiningSession.for_graph(graph).match_batches(
        pattern,
        on_batch,
        edge_induced=edge_induced,
        symmetry_breaking=symmetry_breaking,
        plan=plan,
        label_index=label_index,
        engine=engine,
        frontier_chunk=frontier_chunk,
    )


def aggregate(
    graph: DataGraph,
    patterns: Pattern | Iterable[Pattern],
    map_fn: Callable[[Match], tuple[Any, Any] | None],
    reduce: Callable[[Any, Any], Any] | None = None,
    **options,
) -> dict[Any, Any]:
    """Map/reduce over the matches of one or more patterns (§5.4).

    One-shot convenience over :meth:`MiningSession.aggregate`:
    ``map_fn(match)`` returns a ``(key, value)`` pair (or ``None`` to
    skip), values sharing a key fold through ``reduce`` (default:
    addition), and the final ``{key: value}`` map is returned.
    """
    return MiningSession.for_graph(graph).aggregate(
        patterns, map_fn, reduce=reduce, **options
    )
