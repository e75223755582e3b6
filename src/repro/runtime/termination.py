"""Early-termination helpers (§5.3) layered on ExplorationControl.

Every way a run can end early — the caller's
:class:`~repro.core.callbacks.ExplorationControl`, a
:class:`~repro.core.callbacks.Budget` (re-exported here), the service's
``timeout_ms`` (folded into the budget's deadline) and a process pool's
cancel flag — arms one stop token per run, which the engines poll in one
place (:meth:`repro.core.callbacks.Stop.poll`).  This module adds the
common ways to fire it: stop after N matches, stop when an aggregate
crosses a threshold, stop on a deadline.

A control stops a run and keeps what it found; a budget trip raises
:class:`~repro.errors.BudgetExceededError` with a structured partial.
Use a control for *exact* thresholds observed per match; use a budget
for cooperative chunk-granular limits that work on every engine tier.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.callbacks import Aggregator, Budget, BudgetMeter, ExplorationControl, Match, Stop

__all__ = [
    "stop_after_n_matches",
    "stop_when_aggregate",
    "DeadlineControl",
    "Budget",
    "BudgetMeter",
]


def stop_after_n_matches(
    control: ExplorationControl, n: int, inner: Callable[[Match], None] | None = None
) -> Callable[[Match], None]:
    """Wrap a callback so exploration stops after ``n`` matches."""
    state = {"count": 0}

    def wrapped(m: Match) -> None:
        if inner is not None:
            inner(m)
        state["count"] += 1
        if state["count"] >= n:
            control.stop()

    return wrapped


def stop_when_aggregate(
    control: ExplorationControl,
    key: Any,
    predicate: Callable[[Any], bool],
) -> Callable[[Aggregator], None]:
    """Build an ``on_update`` hook stopping when an aggregate satisfies a
    predicate — the monitoring half of Fig 4b's countAndCheck."""

    def on_update(aggregator: Aggregator) -> None:
        value = aggregator.get(key)
        if value is not None and predicate(value):
            control.stop()

    return on_update


class DeadlineControl(Stop):
    """A stop token that reports stopped once ``seconds`` have passed.

    Models the paper's five-hour execution cap for long-running baseline
    comparisons without needing signal handling.  ``DeadlineControl(0.0)``
    is stopped from the start.
    """

    __slots__ = ()

    def __init__(self, seconds: float):
        super().__init__(deadline=seconds)
