"""The pattern-aware matching engine (§4, §5.1, Figure 7).

Given an :class:`~repro.core.plan.ExplorationPlan`, the engine finds every
canonical match of the pattern in a degree-ordered data graph, invoking a
callback per match — with **zero** per-match isomorphism or canonicality
checks.  Exploration is task-parallel by design: a task is a start vertex,
and tasks share nothing but the read-only graph and plan, so the concurrent
runtime (:mod:`repro.runtime`) can hand tasks to workers freely.

Traversal follows §5.2: matching orders are walked *high-to-low* (the last
position, holding the largest data id, is the task's start vertex), and the
data graph is expected to be degree-ordered so high ids mean high degree;
hub tasks then prune aggressively because few neighbors exceed their id.

Engine-internal ids are those of the degree-ordered graph; the public API
(:mod:`repro.core.api`) translates matches back to original ids.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..errors import MatchingError
from ..graph.graph import DataGraph
from .callbacks import ExplorationControl, Match
from .candidates import bounded, contains, difference, intersect_many
from .matching_order import OrderedCore
from .plan import ExplorationPlan

__all__ = ["EngineStats", "run_tasks", "default_task_order"]


class EngineStats:
    """Counters for one engine run (feeds Figure 1's profiling comparison).

    ``partial_matches`` counts every vertex-to-position assignment the
    engine ever makes — the analogue of baseline systems' intermediate
    embeddings.  ``canonicality_checks`` and ``isomorphism_checks`` exist
    for symmetry with the baselines' stats and are always zero here: the
    plan makes them unnecessary, which is the paper's core claim.
    """

    __slots__ = (
        "tasks",
        "partial_matches",
        "core_matches",
        "complete_matches",
        "canonicality_checks",
        "isomorphism_checks",
    )

    def __init__(self) -> None:
        self.tasks = 0
        self.partial_matches = 0
        self.core_matches = 0
        self.complete_matches = 0
        self.canonicality_checks = 0
        self.isomorphism_checks = 0

    def merge(self, other: "EngineStats") -> None:
        """Accumulate another run's counters (per-thread stats merging)."""
        self.tasks += other.tasks
        self.partial_matches += other.partial_matches
        self.core_matches += other.core_matches
        self.complete_matches += other.complete_matches
        self.canonicality_checks += other.canonicality_checks
        self.isomorphism_checks += other.isomorphism_checks

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EngineStats({self.as_dict()})"


def default_task_order(graph: DataGraph) -> range:
    """Start vertices from highest id (= highest degree) downward (§5.2)."""
    return range(graph.num_vertices - 1, -1, -1)


class _Memo(dict):
    """``memo[v]`` is ``fetch(v)``, computed on first use and kept.

    The graph stores rows and labels as arrays, but the hot loops below
    are fastest over plain lists and ints; a run converts each row and
    label it touches once and keeps it for its own length.
    """

    def __init__(self, fetch: Callable[[int], object]):
        self.fetch = fetch

    def __missing__(self, v: int):
        value = self[v] = self.fetch(v)
        return value


class _Run:
    """Mutable state for one engine invocation over a set of tasks."""

    __slots__ = (
        "plan",
        "on_match",
        "control",
        "stats",
        "timer",
        "count_only",
        "labels",
        "rows",
        "mapping",
        "used",
        "matches",
        "num_vertices",
        "can_count_tail",
    )

    def __init__(
        self,
        graph: DataGraph,
        plan: ExplorationPlan,
        on_match: Callable[[Match], None] | None,
        control: ExplorationControl | None,
        stats: EngineStats | None,
        timer,
        count_only: bool,
    ):
        self.plan = plan
        self.on_match = on_match
        self.control = control
        self.stats = stats
        self.timer = timer
        self.count_only = count_only and on_match is None
        labels = graph.labels()
        self.labels = None if labels is None else _Memo(labels.item)
        self.rows = _Memo(lambda v: graph.neighbors(v).tolist())
        pattern = plan.matched_pattern
        if pattern.is_labeled and self.labels is None:
            raise MatchingError(
                "pattern has label constraints but the data graph is unlabeled"
            )
        self.mapping = [-1] * pattern.num_vertices
        self.used: set[int] = set()
        self.matches = 0
        self.num_vertices = graph.num_vertices
        # Tail-count fast path: the final completion step can be counted
        # instead of enumerated when nothing after it inspects the match.
        self.can_count_tail = (
            self.count_only and not plan.anti_vertex_checks
        )

    # ------------------------------------------------------------------
    # Core matching (high-to-low over one ordered core)
    # ------------------------------------------------------------------

    def run_task(self, start: int) -> None:
        """Explore every match whose top core position holds ``start``."""
        if self.stats is not None:
            self.stats.tasks += 1
        for oc in self.plan.ordered_cores:
            top = oc.size - 1
            label = oc.labels[top]
            if label is not None and self.labels[start] != label:
                continue
            pos_map = [-1] * oc.size
            pos_map[top] = start
            if self.stats is not None:
                self.stats.partial_matches += 1
            if oc.size == 1:
                self._core_matched(oc, pos_map)
            else:
                self._match_core(oc, pos_map, top - 1)

    def _match_core(self, oc: OrderedCore, pos_map: list[int], i: int) -> None:
        """Assign position ``i`` (descending) of the ordered core."""
        rows = self.rows
        timer = self.timer
        later_nbrs = oc.later_neighbors(i)
        upper = pos_map[i + 1]
        if later_nbrs:
            if timer is not None:
                timer.start("core")
            lists = [rows[pos_map[j]] for j in later_nbrs]
            base = intersect_many(lists) if len(lists) > 1 else lists[0]
            if timer is not None:
                timer.stop("core")
                timer.start("po")
            cands: Sequence[int] = bounded(base, -1, upper)
            if timer is not None:
                timer.stop("po")
        else:
            # Position with no later neighbor in the ordered core: any
            # vertex below the bound qualifies (rare; cores are connected
            # but a linear extension may order a vertex before its
            # neighbors).
            cands = range(0, upper)
        anti_later = [b for a, b in oc.anti_edges if a == i]
        if anti_later and not isinstance(cands, range):
            if timer is not None:
                timer.start("core")
            for j in anti_later:
                cands = difference(cands, rows[pos_map[j]])
            if timer is not None:
                timer.stop("core")
            anti_later = []
        label = oc.labels[i]
        labels = self.labels
        stats = self.stats
        for v in cands:
            if label is not None and labels[v] != label:
                continue
            if anti_later and any(
                contains(rows[pos_map[j]], v) for j in anti_later
            ):
                continue
            pos_map[i] = v
            if stats is not None:
                stats.partial_matches += 1
            if i == 0:
                self._core_matched(oc, pos_map)
            else:
                self._match_core(oc, pos_map, i - 1)
            pos_map[i] = -1

    # ------------------------------------------------------------------
    # Completion (non-core vertices, then anti-vertex checks)
    # ------------------------------------------------------------------

    def _core_matched(self, oc: OrderedCore, pos_map: list[int]) -> None:
        """Remap a fully-assigned ordered core through each of its sequences."""
        if self.control is not None and self.control.stopped:
            return
        if self.stats is not None:
            self.stats.core_matches += len(oc.sequences)
        mapping = self.mapping
        used = self.used
        for seq in oc.sequences:
            for position, pattern_vertex in enumerate(seq):
                mapping[pattern_vertex] = pos_map[position]
            used.update(pos_map)
            self._complete(0)
            used.difference_update(pos_map)
            for pattern_vertex in seq:
                mapping[pattern_vertex] = -1

    def _complete(self, step_index: int) -> None:
        """Match non-core vertex ``step_index`` via list intersections."""
        steps = self.plan.noncore_steps
        if step_index == len(steps):
            self._report()
            return
        step = steps[step_index]
        rows = self.rows
        mapping = self.mapping
        timer = self.timer

        if timer is not None:
            timer.start("noncore")
        lists = [rows[mapping[v]] for v in step.neighbors]
        cands = intersect_many(lists) if len(lists) > 1 else list(lists[0])
        for a in step.anti_neighbors:
            cands = difference(cands, rows[mapping[a]])
        if timer is not None:
            timer.stop("noncore")

        lo = -1
        for w in step.lower_bounds:
            mw = mapping[w]
            if mw > lo:
                lo = mw
        hi = self.num_vertices
        for w in step.upper_bounds:
            mw = mapping[w]
            if mw < hi:
                hi = mw
        if lo >= 0 or hi < self.num_vertices:
            if timer is not None:
                timer.start("po")
            cands = bounded(cands, lo, hi)
            if timer is not None:
                timer.stop("po")

        label = step.label
        labels = self.labels
        if label is not None:
            cands = [v for v in cands if labels[v] == label]

        used = self.used
        stats = self.stats
        is_last = step_index + 1 == len(steps)
        if is_last and self.can_count_tail:
            # Count instead of enumerate: subtract candidates already used
            # by the partial match (injectivity).
            overlap = sum(1 for v in used if contains(cands, v))
            found = len(cands) - overlap
            self.matches += found
            if stats is not None:
                stats.partial_matches += found
                stats.complete_matches += found
            return
        u = step.vertex
        for v in cands:
            if v in used:
                continue
            mapping[u] = v
            used.add(v)
            if stats is not None:
                stats.partial_matches += 1
            self._complete(step_index + 1)
            used.discard(v)
            mapping[u] = -1

    def _report(self) -> None:
        """A full regular-vertex assignment: verify anti-vertices, emit."""
        checks = self.plan.anti_vertex_checks
        if checks:
            rows = self.rows
            mapping = self.mapping
            used = self.used
            timer = self.timer
            if timer is not None:
                timer.start("noncore")
            try:
                for check in checks:
                    lists = [rows[mapping[v]] for v in check.neighbors]
                    common = (
                        intersect_many(lists) if len(lists) > 1 else lists[0]
                    )
                    for x in common:
                        if x not in used:
                            return  # a forbidden common neighbor exists
            finally:
                if timer is not None:
                    timer.stop("noncore")
        self.matches += 1
        if self.stats is not None:
            self.stats.complete_matches += 1
        if self.on_match is not None:
            self.on_match(Match(self.plan.pattern, tuple(self.mapping)))


def run_tasks(
    graph: DataGraph,
    plan: ExplorationPlan,
    start_vertices: Iterable[int] | None = None,
    on_match: Callable[[Match], None] | None = None,
    control: ExplorationControl | None = None,
    stats: EngineStats | None = None,
    timer=None,
    count_only: bool = False,
    budget=None,
) -> int:
    """Run matching tasks over ``start_vertices``; return the match count.

    ``graph`` must be degree-ordered (see
    :meth:`DataGraph.degree_ordered`); ids reported to ``on_match`` are in
    that graph's numbering.  ``start_vertices`` defaults to all vertices,
    highest degree first.  With ``count_only`` (and no callback, no
    anti-vertices) the engine counts final-step candidates without
    enumerating them.  ``budget`` is an armed
    :class:`~repro.core.callbacks.BudgetMeter`, polled once per start
    task; exhaustion raises
    :class:`~repro.errors.BudgetExceededError` with the count so far.
    """
    run = _Run(graph, plan, on_match, control, stats, timer, count_only)
    if start_vertices is None:
        start_vertices = default_task_order(graph)
    if timer is not None:
        timer.start("other")
    try:
        for start in start_vertices:
            if control is not None and control.stopped:
                break
            if budget is not None:
                budget.charge_rows(1)
                budget.check(run.matches)
            run.run_task(start)
            if budget is not None:
                budget.levels_completed += 1
    finally:
        if timer is not None:
            timer.stop("other")
    return run.matches
