"""Clique workloads: counting, listing, existence (Fig 4d, 4f) and the
maximal-clique variant via anti-vertices (§6.5, pattern p7).

A k-clique's matching order is unique (the clique is its own core and the
partial order is a total order), so clique counting on Peregrine reduces to
ordered adjacency intersections — no wasted exploration at all.

Every entry point accepts a :class:`~repro.graph.graph.DataGraph` or a
:class:`~repro.core.session.MiningSession`.
"""

from __future__ import annotations

from ..core.session import MiningSession, as_session
from ..graph.graph import DataGraph
from ..pattern.generators import generate_clique
from ..pattern.pattern import Pattern
from .matching import _match_limited

__all__ = [
    "clique_count",
    "clique_exists",
    "list_cliques",
    "maximal_clique_pattern",
    "maximal_clique_count",
]


def clique_count(
    graph: DataGraph | MiningSession,
    k: int,
    symmetry_breaking: bool = True,
    engine: str | None = None,
) -> int:
    """Number of k-cliques in the graph.

    With ``symmetry_breaking=False`` (PRG-U) every one of the k! automorphic
    orderings is explored; the result is corrected by dividing by k!.
    """
    found = as_session(graph).count(
        generate_clique(k), symmetry_breaking=symmetry_breaking, engine=engine
    )
    if not symmetry_breaking:
        factorial = 1
        for i in range(2, k + 1):
            factorial *= i
        found //= factorial
    return found


def clique_exists(graph: DataGraph | MiningSession, k: int) -> bool:
    """Whether the graph contains a k-clique; stops at the first (§5.3)."""
    return as_session(graph).exists(generate_clique(k))


def list_cliques(
    graph: DataGraph | MiningSession, k: int, limit: int | None = None
) -> list[tuple[int, ...]]:
    """Enumerate k-cliques as sorted vertex tuples (optionally capped)."""
    found: list[tuple[int, ...]] = []
    _match_limited(
        as_session(graph), generate_clique(k),
        lambda m: found.append(tuple(sorted(m.vertices()))), limit,
    )
    return found


def maximal_clique_pattern(k: int) -> Pattern:
    """K_k plus a fully-connected anti-vertex: cliques in no (k+1)-clique.

    For k = 3 this is the paper's pattern p7 (§6.5).
    """
    p = generate_clique(k)
    p.add_anti_vertex(list(range(k)))
    return p


def maximal_clique_count(
    graph: DataGraph | MiningSession, k: int, engine: str | None = None
) -> int:
    """Number of k-cliques not contained in any (k+1)-clique."""
    return as_session(graph).count(maximal_clique_pattern(k), engine=engine)
