"""NumPy-vectorized matching engine (the C++-fidelity substitute).

Peregrine's hot loop is adjacency-list intersection on a 16-core C++
machine; CPython cannot match that with interpreted merge loops.  This
module is the closest offline-available stand-in for the paper's
compiled set operations: :class:`FrontierBatchedEngine`, a
level-synchronous analogue of :func:`repro.core.engine.run_tasks` that
reads the degree-ordered :class:`~repro.graph.graph.DataGraph`'s CSR
arrays directly and extends *every* live partial match of a level per
numpy dispatch, plus :func:`fused_run`, which walks one shared frontier
for several plans.

One set operation adds a pattern vertex, in the core and outside it
(§4.1, §5.5): every core level, non-core step and anti-vertex check
compiles to a ``_CandidateSet`` — matched neighbours to intersect,
anti-neighbours to subtract, symmetry bounds, a label — and one kernel
gathers and filters every set, so there is one gather to instrument.

The engine covers the **full pattern-feature matrix** of the paper:

* edge-induced and vertex-induced matching (anti-edge membership masks,
  Theorem 3.1);
* anti-edges and anti-vertices (§4.3);
* labeled patterns — the graph's label array and its per-label vertex
  arrays (:meth:`~repro.graph.graph.DataGraph.vertices_with_label`)
  turn label constraints into boolean masks instead of per-vertex
  Python comparisons;
* per-match callbacks and row batches in the reference engine's DFS
  order, and — when no callback needs the matches — the count-only
  **tail program** (§4's core/non-core split put to work): every
  non-core candidate set depends on the matched columns alone, so the
  longest countable suffix of the plan's non-core steps is counted per
  frontier row from candidate-set *sizes* instead of being enumerated.
  Three shapes count (:class:`_TailProgram`): k steps drawing from one
  shared set (``C(m, k)`` times the orderings their symmetry bounds
  allow — stars, the diamond), two unlinked steps (``|A|·|B| − |A∩B|``
  — the paw, the tailed 4-clique, the house) and two single-neighbour
  steps linked by one symmetry bound (the first set enumerated, each
  candidate ranked into the second — the 4-path).  Labeled steps,
  anti-edges between tail steps, anti-vertex plans and longer linked
  chains keep enumerating up to their last step, which counts alone.

Counts must agree **exactly** with the reference engine on every
feature combination — ``tests/test_accel.py`` fuzzes that equivalence
against both the reference engine and the networkx oracles.
:mod:`repro.core.session` auto-dispatches here whenever a run carries
no stats / timer: ``benchmarks/bench_engine_frontier.py`` measures it
ahead of the interpreter at every swept degree.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

import numpy as np

from ..errors import BudgetExceededError, MatchingError, PartialResult
from ..graph.graph import DataGraph
from .callbacks import Match, Stop
from .matching_order import OrderedCore, _linear_extensions
from .plan import ExplorationPlan, NonCoreStep

__all__ = [
    "bounded_slices",
    "FrontierBatchedEngine",
    "SharedFrontierGathers",
    "ACCEL_FRONTIER_CHUNK",
    "frontier_start_order",
    "fused_run",
]

# Frontier rows expanded per kernel dispatch.  Each expansion touches
# O(rows * avg_degree) intermediate elements, so the default bounds peak
# memory to a few tens of MB on dense graphs while still amortizing
# numpy call overhead across thousands of partial matches.  Tunable per
# run via the ``frontier_chunk`` knob on :func:`repro.core.api.match`.
ACCEL_FRONTIER_CHUNK = 16_384


def bounded_slices(weights: np.ndarray, cap: int):
    """Consecutive slices of ``weights`` whose sums stay near ``cap``.

    The one chunking rule: :meth:`FrontierBatchedEngine._candidates`
    (candidate totals per gather), :func:`fused_run` (frontier walks)
    and — through :func:`repro.runtime.scheduler.weighted_boundaries` —
    the concurrent runtimes' degree-weighted work chunks all cut here.
    A slice closes as soon as its cumulative weight reaches ``cap``, and
    a lone over-cap element still forms a slice of its own, so progress
    is guaranteed and the worst case is one element's weight, not
    ``rows * max_weight``.
    """
    if weights.size == 0:
        return
    cum = np.cumsum(weights)
    if cum[-1] < cap:
        yield slice(0, weights.size)
        return
    start = 0
    while start < weights.size:
        base = cum[start - 1] if start else 0
        end = int(np.searchsorted(cum, base + cap, side="left")) + 1
        end = min(max(end, start + 1), weights.size)
        yield slice(start, end)
        start = end


def frontier_start_order(
    ordered: DataGraph, labels: Iterable[int] | None = None
) -> np.ndarray:
    """The level-0 frontier: hub-first start vertices, label-filtered.

    ``ordered`` is the degree-ordered graph, so descending ids walk the
    hubs first (§5.2); ``labels`` restricts the frontier to the vertices
    carrying one of them — a plan's
    :meth:`~repro.core.plan.ExplorationPlan.pinned_start_labels`, the
    G-Miner label-index pruning (§6.4) — and ``None`` keeps every
    vertex.  Every driver (whole-frontier runs, sampled rounds, thread
    and process chunks) slices this one array, cached per label set by
    :meth:`repro.core.session.MiningSession._frontier`.
    """
    if labels is None:
        return np.arange(ordered.num_vertices - 1, -1, -1, dtype=np.int64)
    starts = np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [ordered.vertices_with_label(label) for label in labels]
    )
    return np.sort(starts)[::-1].copy()


# ----------------------------------------------------------------------
# Candidate sets and the count-only tail program (compiled once per plan
# from its ordered cores, its non-core steps and the matched pattern)
# ----------------------------------------------------------------------


class _CandidateSet(NamedTuple):
    """One candidate set over a fixed frontier column layout.

    Per row the set is ``⋂ adj(nbr_cols) − ⋃ adj(anti_cols)``, strictly
    between the largest ``lower_cols`` and the smallest ``upper_cols``
    value, carrying ``label``, minus the row's used vertices.  With no
    ``nbr_cols`` (a core position with no later neighbour) the set draws
    from the ``label`` partition, or from every vertex, below the upper
    bound.  ``maybe_inside`` is the pattern-aware injectivity table: the
    used columns that *can* lie in the set, each with the neighbour and
    anti-neighbour columns whose membership the pattern does not already
    decide.  A neighbour or bound column (or one ordered beyond a bound)
    is never inside, nor is one whose pattern edges contradict the set.
    """

    nbr_cols: tuple[int, ...]
    anti_cols: tuple[int, ...]
    lower_cols: tuple[int, ...]
    upper_cols: tuple[int, ...]
    label: int | None
    maybe_inside: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]

    @property
    def is_segment(self) -> bool:
        """One bounded adjacency segment: its size is a rank difference."""
        return (
            len(self.nbr_cols) == 1 and not self.anti_cols and self.label is None
        )


class _Geometry(NamedTuple):
    """Per-row candidate geometry of one set over one frontier block."""

    lo: np.ndarray | None  # strict lower bound (None: unbounded)
    hi: np.ndarray | None  # strict upper bound (None: unbounded)
    pick: np.ndarray | None  # which neighbour is the pivot (multi-neighbour)
    pivot: np.ndarray | None  # the min-degree neighbour (None: no neighbour)
    start: np.ndarray  # segment rank of the first candidate
    end: np.ndarray  # segment rank past the last candidate
    lens: np.ndarray  # max(end - start, 0)


class _TailProgram(NamedTuple):
    """How a count-only run counts the steps from ``start`` on.

    ``kind`` is one of three shapes, each counted from per-row set sizes:

    * ``"shared"`` — every step draws from the one set ``sets[0]``; the
      rows contribute ``orders * C(m, k)`` (``k`` steps, ``orders`` the
      linear extensions of their symmetry bounds: 1 for a chain, ``k!``
      with none).
    * ``"unlinked"`` — two steps with no bound between them contribute
      ``|A|·|B| − |A∩B|``; ``sets[inter]`` is ``A∩B`` (``A`` or ``B``
      itself when one's constraints contain the other's).
    * ``"linked"`` — two single-neighbour steps, the second bounded by
      the first (``above``: from below); the first set is enumerated and
      each candidate ranked into the second.
    """

    start: int
    kind: str
    sets: tuple[_CandidateSet, ...]
    orders: int = 1
    inter: int = 0
    above: bool = True


def _frontier_columns(plan: ExplorationPlan, step_index: int) -> list[int]:
    """Pattern vertex held by each frontier column at ``step_index``."""
    return list(plan.core) + [s.vertex for s in plan.noncore_steps[:step_index]]


def _candidate_set(
    plan: ExplorationPlan,
    step: NonCoreStep,
    columns: list[int],
    internal: frozenset = frozenset(),
) -> _CandidateSet | None:
    """Compile ``step``'s candidate set against the frontier ``columns``.

    Bounds on ``internal`` vertices (later tail steps) are left to the
    tail program; an anti-edge to one makes the set uncountable (None).
    """
    if internal.intersection(step.anti_neighbors):
        return None
    pattern = plan.matched_pattern
    orders = set(plan.partial_orders)
    col_of = {v: c for c, v in enumerate(columns)}
    lower = [w for w in step.lower_bounds if w not in internal]
    upper = [w for w in step.upper_bounds if w not in internal]
    maybe_inside = []
    for c, u in enumerate(columns):
        if (
            u in step.neighbors
            or any(u == w or (u, w) in orders for w in lower)
            or any(u == w or (w, u) in orders for w in upper)
            or any(pattern.are_anti_adjacent(u, v) for v in step.neighbors)
            or any(pattern.are_connected(u, a) for a in step.anti_neighbors)
            or (
                step.label is not None
                and pattern.label_of(u) not in (None, step.label)
            )
        ):
            continue
        maybe_inside.append((
            c,
            tuple(col_of[v] for v in step.neighbors
                  if not pattern.are_connected(u, v)),
            tuple(col_of[a] for a in step.anti_neighbors
                  if not pattern.are_anti_adjacent(u, a)),
        ))
    return _CandidateSet(
        tuple(col_of[v] for v in step.neighbors),
        tuple(col_of[a] for a in step.anti_neighbors),
        tuple(col_of[w] for w in lower),
        tuple(col_of[w] for w in upper),
        step.label,
        tuple(maybe_inside),
    )


def _contains(outer: _CandidateSet, inner: _CandidateSet) -> bool:
    """Whether ``outer``'s constraints are a subset of ``inner``'s."""
    return all(
        set(getattr(outer, f)) <= set(getattr(inner, f))
        for f in ("nbr_cols", "anti_cols", "lower_cols", "upper_cols")
    )


def _tail_shape(plan: ExplorationPlan, start: int) -> _TailProgram | None:
    """The tail program for the steps from ``start`` on, if countable."""
    suffix = plan.noncore_steps[start:]
    columns = _frontier_columns(plan, start)
    internal = frozenset(s.vertex for s in suffix)
    sets = [_candidate_set(plan, s, columns, internal) for s in suffix]
    if None in sets:
        return None
    if len(suffix) == 1:
        return _TailProgram(start, "shared", (sets[0],))
    if any(s.label is not None for s in suffix):
        return None
    links = [
        (w, s.vertex) for s in suffix for w in s.lower_bounds if w in internal
    ] + [
        (s.vertex, w) for s in suffix for w in s.upper_bounds if w in internal
    ]
    if all(cs == sets[0] for cs in sets):
        orders = sum(1 for _ in _linear_extensions(list(internal), links))
        return _TailProgram(start, "shared", (sets[0],), orders=orders)
    if len(suffix) != 2:
        return None
    a, b = sets
    if not links:
        if _contains(b, a):
            return _TailProgram(start, "unlinked", (a, b), inter=0)
        if _contains(a, b):
            return _TailProgram(start, "unlinked", (a, b), inter=1)
        first, second = suffix
        union = NonCoreStep(
            -1,
            *(
                tuple(sorted(set(getattr(first, f)) | set(getattr(second, f))))
                for f in (
                    "neighbors", "anti_neighbors", "lower_bounds", "upper_bounds"
                )
            ),
            None,
        )
        both = _candidate_set(plan, union, columns, internal)
        return _TailProgram(start, "unlinked", (a, b, both), inter=2)
    if len(links) == 1 and a.is_segment and b.is_segment:
        return _TailProgram(
            start, "linked", (a, b), above=links[0][0] == suffix[0].vertex
        )
    return None


def _core_set(oc: OrderedCore, level: int) -> _CandidateSet:
    """Core position ``top - level`` as a candidate set over the core block.

    Column ``j`` holds position ``top - j``, so the previous position is
    the last column and the set's one upper bound.  Core values strictly
    decrease along the columns, so no used vertex can lie in the set.
    """
    top = oc.size - 1
    i = top - level
    return _CandidateSet(
        tuple(top - j for j in oc.later_neighbors(i)),
        tuple(top - b for a, b in oc.anti_edges if a == i),
        (),
        (level - 1,),
        oc.labels[i],
        (),
    )


def _compile_steps(
    plan: ExplorationPlan,
) -> tuple[
    list[list[_CandidateSet]],
    list[_CandidateSet],
    list[_CandidateSet],
    _TailProgram | None,
]:
    """Candidate sets per core level, step and anti-vertex check, plus the tail.

    ``cores[rank][level - 1]`` assigns level ``level`` of ordered core
    ``rank``.  An anti-vertex check is the set of its neighbours' common
    neighbours over the completed match; a row survives when that set is
    empty.  The tail program covers the longest countable suffix of steps.
    """
    cores = [
        [_core_set(oc, level) for level in range(1, oc.size)]
        for oc in plan.ordered_cores
    ]
    steps = plan.noncore_steps
    sets = [
        _candidate_set(plan, step, _frontier_columns(plan, i))
        for i, step in enumerate(steps)
    ]
    checks = [
        _candidate_set(
            plan,
            NonCoreStep(check.anti_vertex, check.neighbors, (), (), (), None),
            _frontier_columns(plan, len(steps)),
        )
        for check in plan.anti_vertex_checks
        if check.neighbors
    ]
    tails = (_tail_shape(plan, start) for start in range(len(steps)))
    return cores, sets, checks, next((t for t in tails if t is not None), None)


def _choose_sum(sizes: np.ndarray, k: int) -> int:
    """``Σ C(m, k)`` over per-row set sizes ``m``, exactly."""
    sizes = sizes[sizes >= k]
    if sizes.size == 0:
        return 0
    if k == 1:
        return int(sizes.sum())
    if int(sizes.max()) ** k * sizes.size >= 1 << 62:
        return sum(math.comb(m, k) for m in sizes.tolist())
    ways = sizes.copy()
    for i in range(1, k):
        ways = ways * (sizes - i) // (i + 1)
    return int(ways.sum())


class FrontierBatchedEngine:
    """Level-synchronous batched analogue of the reference engine.

    Where :func:`repro.core.engine.run_tasks` computes one candidate set
    at a time and recurses per partial match, this engine holds *all*
    live partial matches of a matching-order level in one
    ``(n_partials, level)`` array and extends the whole level per numpy
    dispatch.  Every core level, non-core step and anti-vertex check is
    compiled to one :class:`_CandidateSet` and served by one kernel,
    :meth:`_candidates`, over a degree-ordered
    :class:`~repro.graph.graph.DataGraph` — its CSR arrays plus its
    cached :meth:`~repro.graph.graph.DataGraph.degrees`,
    :meth:`~repro.graph.graph.DataGraph.adjacency_keys` and
    :meth:`~repro.graph.graph.DataGraph.hub_index`, so building one
    engine per fused member copies nothing.  An engine is bound to one
    plan, its consumer, chunk and stop token; :func:`fused_run`
    builds it once and hands it the frontier one slice at a time
    (:meth:`walk`), so :attr:`total` is the member's count so far:

    * candidate neighborhoods are gathered with a CSR degree-prefix
      gather from each row's cheapest (min-degree) constraint vertex,
      pre-clipped to the symmetry bounds by rank queries (a core
      position with no later neighbour gathers its label partition, or
      ``0 .. bound - 1``, instead);
    * remaining edge constraints, anti-edge differences, label
      constraints and injectivity narrow the gathered candidates one
      constraint at a time (membership via one ``searchsorted`` over the
      adjacency keys, or a hub's packed bit row);
    * count-only runs hand the longest countable suffix of non-core
      steps to the plan's tail program (compiled once per plan by
      :func:`_compile_steps`): per frontier row the suffix contributes a
      closed form over candidate-set sizes — rank differences for a
      single-neighbour set, a gathered mask count otherwise, minus the
      used vertices the pattern cannot rule out of the set — so a
      star's leaves, a path's ends and a diamond's tips are never
      materialised.  Per-row counts equal enumeration's exactly, so
      fused walks, process chunks and sampled rounds see identical
      per-start totals; a :class:`~repro.core.callbacks.Budget` charges
      only the rows actually materialised (the block entering the tail
      is charged, its counted completions never are).

    Exploration order is the reference engine's DFS order: expansion
    preserves row order and candidate order, so leaves surface in DFS
    preorder; with several ordered cores, each slice's start vertices
    are walked through every core and the slice's per-core match
    batches are merge-sorted (keyed by level-0 origin) back into
    the reference interleaving before callbacks fire, so the merge
    buffer never holds more than one slice's matches.  Counts *and*
    callback order are therefore identical to
    :func:`repro.core.engine.run_tasks`.

    Memory is bounded two ways (default :data:`ACCEL_FRONTIER_CHUNK`):
    oversized blocks are split into ``chunk``-row blocks exhausted
    depth-first, and each expansion gathers its candidate segments in
    groups capped near ``chunk`` *candidates* (:meth:`_candidates`), so
    peak intermediates stay ~``O(chunk)`` per level regardless of graph
    density — a single row's segment (at most one adjacency list or one
    ``arange(bound)``) is the only irreducible allocation.
    """

    __slots__ = (
        "graph",
        "labels",
        "n",
        "flat",
        "offsets",
        "degrees",
        "keys",
        "stride",
        "hubs",
        "plan",
        "steps",
        "on_match",
        "on_batch",
        "count_only",
        "can_count_tail",
        "chunk",
        "width",
        "total",
        "stop",
        "shared",
        "_cur_oc",
        "_cur_rank",
        "_pending",
        "_ordered_emit",
        "_watched",
        "_cores",
        "_sets",
        "_checks",
        "_tail",
    )

    def __init__(
        self,
        graph: DataGraph,
        plan: ExplorationPlan,
        on_match: Callable[[Match], None] | None = None,
        on_batch: Callable[[np.ndarray], None] | None = None,
        chunk: int = ACCEL_FRONTIER_CHUNK,
        stop: Stop | None = None,
    ):
        self.graph = graph
        self.offsets, self.flat, self.labels = graph.csr_arrays()
        if plan.matched_pattern.is_labeled and self.labels is None:
            raise MatchingError(
                "pattern has label constraints but the data graph is unlabeled"
            )
        if on_match is not None and on_batch is not None:
            raise ValueError("pass on_match or on_batch, not both")
        self.n = graph.num_vertices
        self.degrees = graph.degrees()
        self.keys = graph.adjacency_keys()
        self.stride = self.n + 1
        self.hubs = graph.hub_index()
        self.plan = plan
        self.steps = plan.noncore_steps
        self._cores, self._sets, self._checks, self._tail = _compile_steps(plan)
        self.on_match = on_match
        self.on_batch = on_batch
        self.count_only = on_match is None and on_batch is None
        self.can_count_tail = self.count_only and not plan.anti_vertex_checks
        self.chunk = chunk
        self.width = plan.matched_pattern.num_vertices
        self.total = 0
        self.stop = stop
        # The slice's SharedFrontierGathers memo, set by each walk.
        self.shared: SharedFrontierGathers | None = None
        # Several ordered cores interleave per start vertex in the
        # reference order; exact callback order then needs a merge keyed
        # by each match's level-0 origin, buffered for one slice at most.
        self._ordered_emit = on_match is not None and len(plan.ordered_cores) > 1
        self._pending = []
        # A token something besides its budget can fire — a callback,
        # another thread, a deadline control — is polled per emitted
        # match; a bare budget binds at block boundaries only.
        self._watched = stop is not None and (
            stop.budget is None or stop.control is not None
        )

    # ------------------------------------------------------------------
    # Batched kernels over concatenated candidate segments
    # ------------------------------------------------------------------

    def _member(self, owners: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Elementwise ``values[k] in neighbors(owners[k])``.

        Queries whose owner is a hub route through the graph's packed
        roaring rows (two array lookups); the rest binary-search the
        global adjacency keys.  Anti-edge checks and injectivity masks
        — the dense-row-heavy membership consumers — all flow through
        here.
        """
        if self.keys.size == 0 or owners.size == 0:
            return np.zeros(owners.size, dtype=bool)
        if self.hubs is not None:
            return self.hubs.member(owners, values, self._member_sorted)
        return self._member_sorted(owners, values)

    def _member_sorted(
        self, owners: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """The searchsorted membership kernel (non-hub / fallback path)."""
        queries = owners * self.stride + values
        pos = np.searchsorted(self.keys, queries)
        pos[pos == self.keys.size] = 0
        return self.keys[pos] == queries

    def _rank(self, owners: np.ndarray, bounds: np.ndarray, side: str) -> np.ndarray:
        """Per-element rank of ``bounds[k]`` within ``neighbors(owners[k])``.

        ``side="left"`` counts neighbors strictly below the bound,
        ``side="right"`` neighbors at or below it.
        """
        queries = owners * self.stride + bounds
        return (
            np.searchsorted(self.keys, queries, side=side)
            - self.offsets[owners]
        )

    @staticmethod
    def _gather(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row ids and within-segment offsets for concatenated segments."""
        lens = lens.astype(np.int64, copy=False)
        row_ids = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        total = row_ids.size
        if total == 0:
            return row_ids, np.empty(0, dtype=np.int64)
        seg_starts = np.cumsum(lens) - lens
        local = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, lens)
        return row_ids, local

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def walk(self, starts: np.ndarray, shared: SharedFrontierGathers) -> None:
        """Explore one frontier slice; :attr:`total` grows by its matches.

        ``starts`` is one :func:`fused_run` slice (int64, at most
        ``chunk`` vertices) and ``shared`` its first-expansion memo.

        ``on_batch`` is the array-native alternative to ``on_match``: it
        receives ``(rows, num_pattern_vertices)`` int64 arrays (column
        ``u`` holds the data vertex matched to pattern vertex ``u``,
        ``-1`` for anti-vertices) in degree-ordered ids, without
        per-match Python object construction.  Batch boundaries and
        inter-batch order are an implementation detail; the row multiset
        equals the reference engine's match multiset.

        ``stop`` (:class:`~repro.core.callbacks.Stop`, ``None`` for a run
        nothing can stop) enables cooperative early termination (§5.3):
        it is polled (:meth:`_poll`) before every frontier block and —
        unless it is a bare budget, which no callback can fire — before
        each ``on_match`` callback, so a stop lands within one block's
        worth of work — or one *task's* worth when several ordered cores
        require order-merged emission (the slice is walked one start
        vertex at a time so buffered matches can't defer the stopping
        callback).  With ``on_match``, :attr:`total` equals the
        callbacks actually fired; batch/count-only runs wind down at
        block granularity and may include the stopping block in full.
        The block polls charge the token's budget, if any; exhaustion
        raises :class:`~repro.errors.BudgetExceededError`, and the match
        cap reads :attr:`total`, the member's count over every slice.
        """
        self.shared = shared
        # Ordered emission defers callbacks until a slice is fully
        # explored, and a watched token may fire from a callback — so
        # walk one start vertex at a time: a stop then lands within one
        # task's work, mirroring the reference engine's per-task polls.
        step = 1 if self._ordered_emit and self._watched else starts.size
        for lo in range(0, starts.size, step):
            sl = starts[lo: lo + step]
            if self._poll(rows=int(sl.size)):
                break
            self._run_cores(sl)
            if self.stop is not None:
                self.stop.levels_completed += 1
            if self._ordered_emit:
                self._emit_pending()
                self._pending = []

    def _poll(self, rows: int = 0, partials: int = 0) -> bool:
        """Whether to stop: the engine's one question to its stop token
        (:meth:`~repro.core.callbacks.Stop.poll`, which charges the
        budget); a run without a token never stops."""
        return self.stop is not None and self.stop.poll(self.total, rows, partials)

    def _run_cores(self, starts: np.ndarray) -> None:
        """Run every ordered core over one slice of start vertices."""
        for rank, oc in enumerate(self.plan.ordered_cores):
            self._cur_oc = oc
            self._cur_rank = rank
            top_label = oc.labels[oc.size - 1]
            if top_label is not None:
                keep = self.labels[starts] == top_label
                oc_starts = starts[keep]
                origin = np.flatnonzero(keep).astype(np.int64)
            else:
                oc_starts = starts
                origin = np.arange(starts.size, dtype=np.int64)
            self._process_core(oc_starts[:, None], origin, 1)

    # ------------------------------------------------------------------
    # Core matching (high-to-low over one ordered core, level-batched)
    # ------------------------------------------------------------------

    def _process_core(
        self, block: np.ndarray, origin: np.ndarray, level: int
    ) -> None:
        complete = level == self._cur_oc.size
        if not complete and block.shape[0] > self.chunk:
            for lo in range(0, block.shape[0], self.chunk):
                hi = lo + self.chunk
                self._process_core(block[lo:hi], origin[lo:hi], level)
            return
        # A block about to expand is charged; a finished one only asks.
        if block.shape[0] == 0 or self._poll(partials=0 if complete else block.shape[0]):
            return
        if complete:
            self._core_complete(block, origin)
            return
        cset = self._cores[self._cur_rank][level - 1]
        for nxt, nxt_origin in self._expand(block, origin, cset):
            self._process_core(nxt, nxt_origin, level + 1)

    # ------------------------------------------------------------------
    # Completion (non-core steps, batched)
    # ------------------------------------------------------------------

    def _core_complete(self, block: np.ndarray, origin: np.ndarray) -> None:
        """Remap finished core rows through each sequence, interleaved."""
        oc = self._cur_oc
        rows = block.shape[0]
        if self.count_only and not self.steps and not self.plan.anti_vertex_checks:
            # Core-only count: one match per collapsed sequence per row.
            self.total += rows * len(oc.sequences)
            return
        top = oc.size - 1
        core_vertices = self.plan.core
        perms = []
        for seq in oc.sequences:
            pos_of = {vertex: position for position, vertex in enumerate(seq)}
            perms.append([top - pos_of[v] for v in core_vertices])
        if len(perms) == 1:
            remapped = block[:, perms[0]]
            rep_origin = origin
        else:
            # Row-major (row, sequence) interleave keeps the reference
            # emission order: each core match walks all its sequences
            # before the next core match starts.
            stacked = np.stack([block[:, p] for p in perms], axis=1)
            remapped = stacked.reshape(rows * len(perms), len(core_vertices))
            rep_origin = np.repeat(origin, len(perms))
        self._process_steps(remapped, rep_origin, 0)

    def _process_steps(
        self, block: np.ndarray, origin: np.ndarray, step_index: int
    ) -> None:
        final = step_index == len(self.steps)
        if not final and block.shape[0] > self.chunk:
            for lo in range(0, block.shape[0], self.chunk):
                hi = lo + self.chunk
                self._process_steps(block[lo:hi], origin[lo:hi], step_index)
            return
        if block.shape[0] == 0 or self._poll(partials=0 if final else block.shape[0]):
            return
        if final:
            self._finalize(block, origin)
            return
        if self.can_count_tail and step_index == self._tail.start:
            self.total += self._count_tail(block)
            return
        cset = self._sets[step_index]
        for nxt, nxt_origin in self._expand(block, origin, cset):
            self._process_steps(nxt, nxt_origin, step_index + 1)

    # ------------------------------------------------------------------
    # The candidate-set kernel (every core level, step and check)
    # ------------------------------------------------------------------

    def _step_context(self, block: np.ndarray, cset: _CandidateSet) -> _Geometry:
        """Per-row candidate geometry of one set over ``block``.

        The pivot is each row's min-degree neighbour; an absent bound
        skips its rank query (rank 0, or the pivot's degree).  A set with
        no neighbour (a core position, bounded above only) ranks its
        bound into the label partition, or takes it as the length of
        ``0 .. bound - 1``.
        """
        rows = block.shape[0]
        lo = hi = pick = None
        if cset.lower_cols:
            lo = block[:, list(cset.lower_cols)].max(axis=1)
        if cset.upper_cols:
            hi = block[:, list(cset.upper_cols)].min(axis=1)
        if not cset.nbr_cols:
            end = hi
            if cset.label is not None:
                part = self.graph.vertices_with_label(cset.label)
                end = np.searchsorted(part, hi)
            return _Geometry(lo, hi, None, None,
                             np.zeros(rows, dtype=np.int64), end, end)
        if len(cset.nbr_cols) == 1:
            pivot = block[:, cset.nbr_cols[0]]
        else:
            owner_cols = block[:, list(cset.nbr_cols)]
            pick = np.argmin(self.degrees[owner_cols], axis=1)
            pivot = owner_cols[np.arange(rows), pick]
        start = (
            np.zeros(rows, dtype=np.int64)
            if lo is None
            else self._rank(pivot, lo, "right")
        )
        end = self.degrees[pivot] if hi is None else self._rank(pivot, hi, "left")
        return _Geometry(lo, hi, pick, pivot, start, end,
                         np.maximum(end - start, 0))

    def _set_filter(
        self,
        block: np.ndarray,
        rows_slice: slice,
        row_ids: np.ndarray,
        cands: np.ndarray,
        cset: _CandidateSet,
        pick: np.ndarray | None,
        injective: bool,
    ) -> np.ndarray:
        """Indices of the gathered candidates that lie in ``cset``.

        Constraints narrow the survivors one at a time — label first,
        then each non-pivot neighbour, then anti-neighbours — so every
        membership probe runs only on candidates still alive.  A set with
        no neighbour was drawn from its label partition, so its label
        holds already.  ``injective`` also drops candidates equal to a
        used vertex (only the columns that can lie in the set need the
        comparison).
        """
        g_block = block[rows_slice]
        keep = np.arange(cands.size, dtype=np.int64)
        if cset.label is not None and cset.nbr_cols:
            keep = keep[self.labels[cands] == cset.label]
        if pick is not None:
            g_pick = pick[rows_slice]
            for k, c in enumerate(cset.nbr_cols):
                rows = row_ids[keep]
                probe = np.flatnonzero(g_pick[rows] != k)
                hit = np.ones(keep.size, dtype=bool)
                hit[probe] = self._member(
                    g_block[rows[probe], c], cands[keep[probe]]
                )
                keep = keep[hit]
        for c in cset.anti_cols:
            keep = keep[~self._member(g_block[row_ids[keep], c], cands[keep])]
        if injective:
            for c, _, _ in cset.maybe_inside:
                keep = keep[cands[keep] != g_block[row_ids[keep], c]]
        return keep

    def _candidates(
        self,
        block: np.ndarray,
        cset: _CandidateSet,
        geo: _Geometry,
        injective: bool,
    ):
        """Yield ``(rows_slice, row_ids, cands)``: ``cset``'s members per row group.

        The one gather.  Each row's segment — its pivot's adjacency
        between the bound ranks, the label partition below the bound, or
        ``0 .. bound - 1`` — is gathered in row groups whose *candidate
        total* stays near ``chunk`` (input-row chunking alone cannot bound
        a level that fans ``chunk`` rows out to ``chunk * n`` candidates;
        a lone over-cap row still goes whole, so the worst case is one
        segment), then narrowed by :meth:`_set_filter`.  ``row_ids``
        index ``block[rows_slice]``; survivors keep row-then-candidate
        order.
        """
        if geo.pivot is not None:
            source, base = self.flat, self.offsets[geo.pivot] + geo.start
        elif cset.label is not None:
            source, base = self.graph.vertices_with_label(cset.label), None
        else:
            source = base = None
        for rows_slice in bounded_slices(geo.lens, self.chunk):
            row_ids, local = self._gather(geo.lens[rows_slice])
            pos = local if base is None else base[rows_slice][row_ids] + local
            cands = pos if source is None else source[pos]
            keep = self._set_filter(
                block, rows_slice, row_ids, cands, cset, geo.pick, injective
            )
            if keep.size < cands.size:
                row_ids = row_ids[keep]
                cands = cands[keep]
            yield rows_slice, row_ids, cands

    def _expand(self, block: np.ndarray, origin: np.ndarray, cset: _CandidateSet):
        """Extend each row of ``block`` by each member of ``cset``.

        Yields ``(sub_block, sub_origin)`` pairs per row group.  A fused
        run's first expansion of its slice — the block's one column is
        the slice verbatim, so its origin is the identity — is computed
        once per variant and replayed from the slice's memo for every
        further member (:class:`SharedFrontierGathers`).
        """
        memo = self.shared
        key = subs = None
        if (
            memo is not None
            and block.shape[1] == 1
            and cset.nbr_cols
            and memo.matches(block[:, 0])
        ):
            key = (bool(cset.lower_cols), bool(cset.upper_cols), cset.label)
            if key in memo.expansions:
                yield from memo.expansions[key]
                return
            subs = []
        geo = self._step_context(block, cset)
        for rows_slice, row_ids, cands in self._candidates(
            block, cset, geo, True
        ):
            sub = (
                np.concatenate(
                    [block[rows_slice][row_ids], cands[:, None]], axis=1
                ),
                origin[rows_slice][row_ids],
            )
            if subs is not None:
                subs.append(sub)
            yield sub
        if subs is not None:
            memo.expansions[key] = subs

    def _inside_rows(
        self, block: np.ndarray, cset: _CandidateSet, geo: _Geometry
    ):
        """Yield ``(used, rows)``: per used column, the rows it lies in the set.

        Bounds are compared first and membership is probed only on the
        surviving rows, and only for the neighbours the pattern's own
        edges leave undecided.
        """
        for c, nbr_probes, anti_probes in cset.maybe_inside:
            used = block[:, c]
            keep = np.ones(used.size, dtype=bool)
            if geo.lo is not None:
                keep &= used > geo.lo
            if geo.hi is not None:
                keep &= used < geo.hi
            rows = np.flatnonzero(keep)
            for n in nbr_probes:
                rows = rows[self._member(block[rows, n], used[rows])]
            for a in anti_probes:
                rows = rows[~self._member(block[rows, a], used[rows])]
            if cset.label is not None:
                rows = rows[self.labels[used[rows]] == cset.label]
            yield used, rows

    def _set_sizes(self, block: np.ndarray, cset: _CandidateSet) -> np.ndarray:
        """Per-row size of ``cset`` minus the row's used vertices in it."""
        geo = self._step_context(block, cset)
        if cset.is_segment:
            sizes = geo.lens
        else:
            sizes = np.zeros(block.shape[0], dtype=np.int64)
            for rows_slice, row_ids, _ in self._candidates(
                block, cset, geo, False
            ):
                sizes[rows_slice] = np.bincount(
                    row_ids, minlength=rows_slice.stop - rows_slice.start
                )
        for _, rows in self._inside_rows(block, cset, geo):
            sizes[rows] -= 1
        return sizes

    def _count_tail(self, block: np.ndarray) -> int:
        """Count every completion of ``block`` through the tail program."""
        tail = self._tail
        if tail.kind == "linked":
            return self._count_linked(block, *tail.sets, tail.above)
        if tail.kind == "shared":
            sizes = self._set_sizes(block, tail.sets[0])
            return tail.orders * _choose_sum(sizes, len(self.steps) - tail.start)
        # |A|·|B| − |A∩B|: a row with an empty A or B contributes nothing,
        # so each later set is sized only on the rows still alive.
        sizes = []
        for cset in tail.sets:
            if sizes:
                live = np.flatnonzero(sizes[-1])
                block = block[live]
                sizes = [s[live] for s in sizes]
            sizes.append(self._set_sizes(block, cset))
        return int(sizes[0] @ sizes[1]) - int(sizes[tail.inter].sum())

    def _count_linked(
        self,
        block: np.ndarray,
        first: _CandidateSet,
        second: _CandidateSet,
        above: bool,
    ) -> int:
        """Two linked single-neighbour steps: rank each first into the second.

        Each first-step candidate ``x`` (used vertices removed) completes
        with every second-step vertex beyond ``x`` — one rank query into
        the second pivot's segment, minus the used vertices inside it
        that also lie beyond ``x``.
        """
        ga = self._step_context(block, first)
        gb = self._step_context(block, second)
        used_b = []
        for used, rows in self._inside_rows(block, second, gb):
            flag = np.zeros(block.shape[0], dtype=bool)
            flag[rows] = True
            used_b.append((used, flag))
        total = 0
        for rows_slice, row_ids, x in self._candidates(block, first, ga, True):
            r = row_ids + rows_slice.start
            if above:
                bound = x if gb.lo is None else np.maximum(gb.lo[r], x)
                n = gb.end[r] - self._rank(gb.pivot[r], bound, "right")
            else:
                bound = x if gb.hi is None else np.minimum(gb.hi[r], x)
                n = self._rank(gb.pivot[r], bound, "left") - gb.start[r]
            total += int(np.maximum(n, 0).sum())
            for used, flag in used_b:
                beyond = used[r] > x if above else used[r] < x
                total -= int(np.count_nonzero(flag[r] & beyond))
        return total

    # ------------------------------------------------------------------
    # Anti-vertex verification + emission
    # ------------------------------------------------------------------

    def _finalize(self, block: np.ndarray, origin: np.ndarray) -> None:
        cols = _frontier_columns(self.plan, len(self.steps))
        if self._checks:
            alive = np.ones(block.shape[0], dtype=bool)
            for cset in self._checks:
                geo = self._step_context(block, cset)
                # Rows with any surviving common neighbor outside the
                # match violate the anti-vertex; scatter-reject them.
                for rows_slice, row_ids, _ in self._candidates(
                    block, cset, geo, True
                ):
                    alive[rows_slice.start + row_ids] = False
            if not alive.all():
                block = block[alive]
                origin = origin[alive]
        if self.on_match is None:
            # Count-only / batch paths count whole blocks up front: a
            # stop between blocks never splits a delivered batch.
            self.total += block.shape[0]
            if self.on_batch is not None:
                mappings = np.full(
                    (block.shape[0], self.width), -1, dtype=np.int64
                )
                mappings[:, cols] = block
                self.on_batch(mappings)
            return
        mappings = np.full((block.shape[0], self.width), -1, dtype=np.int64)
        mappings[:, cols] = block
        if self._ordered_emit:
            self._pending.append((origin, self._cur_rank, mappings))
            return
        self._emit_rows(mappings.tolist())

    def _emit_rows(self, rows: list[list[int]]) -> None:
        """Fire ``on_match`` per row, counting matches as they emit.

        Mirrors the reference engine's accounting: the returned total is
        the number of callbacks fired, so an early-terminating callback
        (``control.stop()``) suppresses — and uncounts — everything after
        the stopping match.
        """
        pattern = self.plan.pattern
        on_match = self.on_match
        if not self._watched:
            self.total += len(rows)
            for row in rows:
                on_match(Match(pattern, tuple(row)))
            return
        poll = self.stop.poll
        for row in rows:
            if poll(self.total):
                break
            self.total += 1
            on_match(Match(pattern, tuple(row)))

    def _emit_pending(self) -> None:
        """Merge one slice's per-core match batches into reference order."""
        pending = self._pending
        if not pending:
            return
        origins = np.concatenate([origin for origin, _, _ in pending])
        ranks = np.concatenate(
            [
                np.full(origin.size, rank, dtype=np.int64)
                for origin, rank, _ in pending
            ]
        )
        mappings = np.vstack([rows for _, _, rows in pending])
        # Stable sort: primary key origin (start order), secondary key
        # ordered-core rank; ties keep intra-core DFS emission order.
        order = np.lexsort((ranks, origins))
        self._emit_rows(mappings[order].tolist())


class SharedFrontierGathers:
    """One slice's first expansions, memoised across fused members.

    The fused multi-pattern runner walks the level-0 frontier in slices
    and runs every member pattern over each slice.  A member's *first*
    expansion — a multi-position core's level 1, or the first completion
    step of a single-vertex-core plan — extends the bare start vertex by
    its own neighbours, so its candidate set is fully determined by a
    small *variant signature*: bounded below the start, bounded above
    it, and the new vertex's label.  (An anti-edge to the start leaves
    no neighbour to gather and never reaches the memo; injectivity is
    vacuous, since a simple graph never lists a vertex among its own
    neighbours.)

    :meth:`FrontierBatchedEngine._expand` stores its own sub-blocks here
    per variant, so the first member needing a variant pays the
    sequential price and every further member replays them.  Motif
    censuses and FSM rounds concentrate on a handful of variants.  The
    memo is consulted only when the block's one column is the slice
    verbatim (label-filtered per-core subsets take the kernel), so
    correctness never depends on it: a miss costs the un-fused
    expansion.  Callers must not mutate the stored arrays.
    """

    __slots__ = ("starts", "expansions")

    def __init__(self, starts: np.ndarray):
        self.starts = starts
        self.expansions: dict[tuple, list[tuple[np.ndarray, np.ndarray]]] = {}

    def matches(self, starts: np.ndarray) -> bool:
        """Whether ``starts`` is exactly this slice."""
        return bool(np.array_equal(starts, self.starts))


def fused_run(
    graph: DataGraph,
    members: list[tuple[ExplorationPlan, Callable | None, Callable | None]],
    starts: np.ndarray,
    chunk: int | None = None,
    stop: Stop | None = None,
) -> list[int]:
    """Run several plans over one shared frontier; return per-member counts.

    The one frontier walk.  ``graph`` is the degree-ordered graph;
    ``members`` are ``(plan, on_match, on_batch)`` triples in reference
    order (at most one of the callbacks each; both ``None`` counts
    without enumerating).  All members share the level-0 frontier:
    ``starts`` is that fused frontier as an int64 array — typically the
    union of the group's pinned start labels as computed by
    :meth:`repro.core.session.MiningSession` grouping, or one chunk or
    sampled round of it.

    Each member gets one :class:`FrontierBatchedEngine`.  The frontier
    is walked once in degree-weighted slices; per slice, every engine
    walks it with the slice's :class:`SharedFrontierGathers` memo, so
    each first-expansion variant is computed by the kernel once per
    slice and replayed for every further member.  Per-member counts and
    callback order are identical to running each member alone (slices
    partition the same start order, and in-slice exploration is the
    engine's own DFS), which ``tests/test_multipattern.py``
    fuzz-enforces.

    ``stop`` is the run's one :class:`~repro.core.callbacks.Stop`
    token (``None``: nothing can stop the run), polled between slices
    and shared by every member engine, which polls it between blocks
    and (unless it is a bare budget) per emitted match — so a stop lands
    within one block of one member's work, the budget's deadline and row
    caps bound the whole fused call, and its match cap binds each
    member's count over every slice.  On exhaustion the raised
    :class:`~repro.errors.BudgetExceededError` carries the *summed*
    partial with per-member counts in ``partial.detail["totals"]``.
    """
    cap = ACCEL_FRONTIER_CHUNK if chunk is None else max(1, int(chunk))
    engines = [
        FrontierBatchedEngine(graph, plan, on_match, on_batch, cap, stop)
        for plan, on_match, on_batch in members
    ]
    # degree + 1 keeps zero-degree starts advancing and bounds slice rows.
    weights = graph.degrees()[starts] + 1
    try:
        for sl in bounded_slices(weights, cap):
            if stop is not None and stop.stopped:
                break
            shared = SharedFrontierGathers(starts[sl])
            for engine in engines:
                engine.walk(shared.starts, shared)
    except BudgetExceededError as err:
        totals = [engine.total for engine in engines]
        partial = PartialResult(
            sum(totals),
            levels_completed=err.partial.levels_completed,
            truncated=True,
            reason=err.partial.reason,
            detail={"totals": totals},
        )
        raise BudgetExceededError(str(err), partial) from None
    return [engine.total for engine in engines]
