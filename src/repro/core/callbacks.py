"""Match objects, exploration control and aggregation plumbing (§5.3, §5.4).

User callbacks receive :class:`Match` instances and may:

* aggregate values keyed by pattern via :class:`Aggregator` (the paper's
  ``mapPattern``);
* request early termination via :class:`ExplorationControl.stop` (the
  paper's ``stopExploration``), which all matching threads observe.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import BudgetExceededError, PartialResult
from ..pattern.pattern import Pattern

__all__ = [
    "Match",
    "ExplorationControl",
    "Aggregator",
    "MatchCallback",
    "Budget",
    "BudgetMeter",
]


class Match:
    """One complete match: a mapping from pattern vertices to data vertices.

    ``mapping[u]`` is the data vertex matched to regular pattern vertex
    ``u``; anti-vertices have no image and map to ``-1``.
    """

    __slots__ = ("pattern", "mapping")

    def __init__(self, pattern: Pattern, mapping: tuple[int, ...]):
        self.pattern = pattern
        self.mapping = mapping

    def __getitem__(self, u: int) -> int:
        return self.mapping[u]

    def vertices(self) -> list[int]:
        """Matched data vertices (excluding anti-vertex placeholders)."""
        return [v for v in self.mapping if v >= 0]

    def as_dict(self) -> dict[int, int]:
        """Pattern-vertex -> data-vertex mapping, without anti-vertices."""
        return {u: v for u, v in enumerate(self.mapping) if v >= 0}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Match({self.as_dict()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.mapping == other.mapping and self.pattern == other.pattern

    def __hash__(self) -> int:
        return hash(self.mapping)


MatchCallback = Callable[[Match], None]


class ExplorationControl:
    """Cooperative early-termination token shared by all matching tasks.

    A callback (or any observer) calls :meth:`stop`; tasks poll
    :attr:`stopped` between units of work and wind down, returning the
    values aggregated so far (§5.3).
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def stop(self) -> None:
        """Request that all exploration stop as soon as possible."""
        self._event.set()

    @property
    def stopped(self) -> bool:
        """Whether termination has been requested."""
        return self._event.is_set()

    def reset(self) -> None:
        """Re-arm the control for a fresh exploration."""
        self._event.clear()


@dataclass(frozen=True)
class Budget:
    """Declarative work budget for one query (all limits optional).

    A budget is a frozen spec; each run arms it into a private
    :class:`BudgetMeter` (so a session-default deadline restarts per
    call).  Engines poll the meter cooperatively — once per frontier
    chunk in the batched engines, once per start task in the per-match
    engines — so an armed deadline costs one ``perf_counter`` comparison
    per chunk and a disarmed budget costs one ``is None`` check.

    Limits are *cooperative*: a run stops at the first poll after a
    limit trips, so counts may overshoot by up to one chunk.  For an
    exact match cap use
    :func:`repro.runtime.termination.stop_after_n_matches`.

    ``max_expanded_partials`` caps partial-match rows the engine actually
    *materialises*.  A count-only run counts its trailing non-core steps
    from candidate-set sizes (the batched engine's tail program): the
    rows entering that tail are charged once, and the completions it
    counts are never charged — a ``star:5`` count charges one row per
    start vertex however many matches it finds.
    """

    deadline: float | None = None
    max_matches: int | None = None
    max_frontier_rows: int | None = None
    max_expanded_partials: int | None = None

    def __post_init__(self):
        for name in (
            "deadline",
            "max_matches",
            "max_frontier_rows",
            "max_expanded_partials",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"Budget.{name} must be positive, got {value!r}")

    def meter(self) -> "BudgetMeter":
        """Arm this budget for one run (starts the deadline clock)."""
        return BudgetMeter(self)


class BudgetMeter:
    """Mutable per-run state for an armed :class:`Budget`.

    One meter spans one logical query — a fused multi-pattern walk
    shares a single meter across all member engines, so the deadline and
    row caps bound the whole call, not each member.  The match cap binds
    each pattern's whole frontier: a walk that runs one engine per
    frontier slice sets ``counted`` to the member's matches from earlier
    slices before each engine run, and :meth:`check` adds it.
    """

    __slots__ = (
        "budget",
        "deadline_at",
        "frontier_rows",
        "expanded_partials",
        "levels_completed",
        "counted",
    )

    def __init__(self, budget: Budget):
        self.budget = budget
        self.deadline_at = (
            None
            if budget.deadline is None
            else time.perf_counter() + budget.deadline
        )
        self.frontier_rows = 0
        self.expanded_partials = 0
        self.levels_completed = 0
        self.counted = 0

    def charge_rows(self, n: int) -> None:
        """Account ``n`` level-0 frontier rows entering exploration."""
        self.frontier_rows += n

    def charge_partials(self, n: int) -> None:
        """Account ``n`` materialised partial matches (frontier block rows)."""
        self.expanded_partials += n

    def exhausted_reason(self) -> str | None:
        """The first tripped limit among the non-match limits, if any."""
        b = self.budget
        if self.deadline_at is not None and time.perf_counter() >= self.deadline_at:
            return f"deadline of {b.deadline}s elapsed"
        if (
            b.max_frontier_rows is not None
            and self.frontier_rows >= b.max_frontier_rows
        ):
            return (
                f"frontier rows {self.frontier_rows} >= cap {b.max_frontier_rows}"
            )
        if (
            b.max_expanded_partials is not None
            and self.expanded_partials >= b.max_expanded_partials
        ):
            return (
                f"expanded partials {self.expanded_partials}"
                f" >= cap {b.max_expanded_partials}"
            )
        return None

    def check(self, matches: int) -> None:
        """Poll every limit; raise with the partial-so-far on a trip.

        ``matches`` is the polling engine's own count; the raised partial
        carries it, while the match cap sees ``counted + matches``.
        """
        b = self.budget
        reason = None
        seen = self.counted + matches
        if b.max_matches is not None and seen >= b.max_matches:
            reason = f"matches {seen} >= cap {b.max_matches}"
        else:
            reason = self.exhausted_reason()
        if reason is not None:
            raise BudgetExceededError(
                f"budget exceeded: {reason}",
                PartialResult(
                    matches,
                    levels_completed=self.levels_completed,
                    truncated=True,
                    reason=reason,
                ),
            )


class Aggregator:
    """Pattern-keyed aggregation map (the paper's ``mapPattern`` target).

    Values are combined with a user-supplied binary ``combine`` function
    (default: addition).  Thread-safety comes from a lock; the concurrent
    runtime instead gives each worker a local ``Aggregator`` and merges
    them on-the-fly (§5.4), keeping the hot path lock-free.
    """

    __slots__ = ("_values", "_combine", "_lock")

    def __init__(self, combine: Callable[[Any, Any], Any] | None = None):
        self._values: dict[Any, Any] = {}
        self._combine = combine if combine is not None else lambda a, b: a + b
        self._lock = threading.Lock()

    def map_pattern(self, key: Any, value: Any) -> None:
        """Fold ``value`` into the aggregate for ``key``."""
        with self._lock:
            if key in self._values:
                self._values[key] = self._combine(self._values[key], value)
            else:
                self._values[key] = value

    def get(self, key: Any, default: Any = None) -> Any:
        """Current aggregate for ``key``."""
        with self._lock:
            return self._values.get(key, default)

    def keys(self) -> list[Any]:
        """Snapshot of aggregation keys."""
        with self._lock:
            return list(self._values.keys())

    def result(self) -> dict[Any, Any]:
        """Snapshot of the full aggregation map."""
        with self._lock:
            return dict(self._values)

    def merge_from(self, other: "Aggregator") -> None:
        """Fold another aggregator's values into this one and clear it.

        This is the value swap the asynchronous aggregator thread performs
        against each worker's local aggregator.
        """
        with other._lock:
            drained = other._values
            other._values = {}
        with self._lock:
            for key, value in drained.items():
                if key in self._values:
                    self._values[key] = self._combine(self._values[key], value)
                else:
                    self._values[key] = value

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)
