"""Pattern-matching workloads (Fig 4c): count, enumerate, stream matches.

Each function accepts a :class:`~repro.graph.graph.DataGraph` or a
:class:`~repro.core.session.MiningSession`.
"""

from __future__ import annotations

from typing import Callable

from ..core.callbacks import ExplorationControl, Match
from ..core.session import MiningSession, as_session
from ..graph.graph import DataGraph
from ..pattern.pattern import Pattern
from ..runtime.termination import stop_after_n_matches

__all__ = [
    "count_pattern",
    "enumerate_matches",
    "match_and_write",
    "count_unique_subgraphs",
]


def count_pattern(
    graph: DataGraph | MiningSession,
    pattern: Pattern,
    edge_induced: bool = True,
    engine: str | None = None,
) -> int:
    """Number of canonical matches of ``pattern``."""
    return as_session(graph).count(
        pattern, edge_induced=edge_induced, engine=engine
    )


def enumerate_matches(
    graph: DataGraph | MiningSession,
    pattern: Pattern,
    edge_induced: bool = True,
    limit: int | None = None,
) -> list[Match]:
    """Materialize matches as a list (optionally capped at ``limit``)."""
    out: list[Match] = []
    _match_limited(
        as_session(graph), pattern, out.append, limit, edge_induced=edge_induced
    )
    return out


def _match_limited(session, pattern, on_match, limit, **options) -> None:
    """``session.match`` stopped after ``limit`` matches (``None``: all).

    ``limit=0`` walks nothing; a negative limit raises ``ValueError``.
    """
    if limit is None:
        session.match(pattern, on_match, **options)
        return
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit!r}")
    if limit:
        control = ExplorationControl()
        capped = stop_after_n_matches(control, limit, on_match)
        session.match(pattern, capped, control=control, **options)


def match_and_write(
    graph: DataGraph | MiningSession,
    pattern: Pattern,
    write: Callable[[Match], None],
    edge_induced: bool = True,
    engine: str | None = None,
) -> int:
    """The paper's Fig 4c program: stream every match to ``write``."""
    return as_session(graph).match(
        pattern, write, edge_induced=edge_induced, engine=engine
    )


def count_unique_subgraphs(
    graph: DataGraph | MiningSession,
    pattern: Pattern,
    edge_induced: bool = True,
    engine: str | None = None,
) -> int:
    """Count distinct data-vertex *sets* matched (collapses automorphism-
    inequivalent assignments over the same vertices, e.g. for reporting)."""
    seen: set[tuple[int, ...]] = set()

    def collect(m: Match) -> None:
        seen.add(tuple(sorted(m.vertices())))

    as_session(graph).match(
        pattern, collect, edge_induced=edge_induced, engine=engine
    )
    return len(seen)
