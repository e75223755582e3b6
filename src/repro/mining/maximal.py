"""Clique-problem variations from §2.1: maximal, pseudo and frequent cliques.

The paper lists three variations of clique counting — *maximal* cliques
(cliques contained in no larger clique), *pseudo-cliques* (vertex sets whose
edge density exceeds a threshold), and *frequent* cliques (cliques whose
support exceeds a frequency threshold).  This module implements all three
on top of the pattern-aware engine, plus a classical Bron–Kerbosch
enumerator that serves as an exact cross-check baseline in tests.

Two routes to maximal cliques are provided:

* the *pattern-aware* route (:func:`maximal_cliques_of_size`) expresses
  "k-clique in no (k+1)-clique" with a fully-connected anti-vertex —
  the paper's pattern p7 generalized to any k — and lets the engine do
  the work;
* the *enumeration* route (:func:`bron_kerbosch`) lists all maximal
  cliques of every size with the pivoting variant of Bron–Kerbosch,
  which is what purpose-built tools do.

Both agree on every graph (tested property-style), which is itself a
strong correctness check of the anti-vertex machinery.

The pattern-aware routes accept a :class:`~repro.graph.graph.DataGraph`
or a :class:`~repro.core.session.MiningSession`; censuses and
density-threshold scans are multi-pattern workloads and share one
session per call.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from ..core.callbacks import Match
from ..core.session import MiningSession, as_session
from ..graph.graph import DataGraph
from ..mining.support import Domain
from ..core.symmetry import orbit_partition
from ..pattern.generators import generate_clique
from .cliques import maximal_clique_pattern

__all__ = [
    "bron_kerbosch",
    "maximal_cliques_of_size",
    "maximal_clique_census",
    "pseudo_clique_count",
    "pseudo_cliques",
    "frequent_clique_sizes",
]


# ----------------------------------------------------------------------
# Bron–Kerbosch with pivoting: the purpose-built baseline
# ----------------------------------------------------------------------

def bron_kerbosch(
    graph: DataGraph | MiningSession,
) -> Iterator[tuple[int, ...]]:
    """Yield every maximal clique of the graph as a sorted vertex tuple.

    Uses the pivoting variant: at each node of the recursion tree a pivot
    ``u`` maximizing ``|P ∩ adj(u)|`` is chosen and only non-neighbors of
    the pivot are branched on, which prunes the search exponentially on
    dense graphs.
    """
    if isinstance(graph, MiningSession):
        graph = graph.graph
    adj = [set(graph.neighbors(v).tolist()) for v in graph.vertices()]

    def expand(r: list[int], p: set[int], x: set[int]) -> Iterator[tuple[int, ...]]:
        if not p and not x:
            yield tuple(sorted(r))
            return
        pivot = max(p | x, key=lambda u: len(p & adj[u]))
        for v in list(p - adj[pivot]):
            yield from expand(r + [v], p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    yield from expand([], set(graph.vertices()), set())


# ----------------------------------------------------------------------
# Pattern-aware maximal cliques (anti-vertex route)
# ----------------------------------------------------------------------

def maximal_cliques_of_size(
    graph: DataGraph | MiningSession, k: int, engine: str | None = None
) -> list[tuple[int, ...]]:
    """All maximal cliques with exactly ``k`` vertices, via anti-vertex.

    A k-clique is maximal iff no data vertex is adjacent to all of its
    members — exactly the constraint a fully-connected anti-vertex
    enforces (pattern p7 for k = 3).  Isolated vertices are maximal
    1-cliques and are handled directly (a 1-vertex pattern core needs no
    exploration).
    """
    session = as_session(graph)
    data = session.graph
    if k == 1:
        return [(v,) for v in data.vertices() if data.degree(v) == 0]
    found: list[tuple[int, ...]] = []

    def on_match(m: Match) -> None:
        found.append(tuple(sorted(m.vertices())))

    session.match(maximal_clique_pattern(k), on_match, engine=engine)
    return sorted(found)


def maximal_clique_census(
    graph: DataGraph | MiningSession, max_k: int, engine: str | None = None
) -> dict[int, int]:
    """Count maximal cliques by size for sizes ``1..max_k``.

    The census over *all* sizes equals what :func:`bron_kerbosch` yields,
    grouped by clique size; this function computes it pattern-aware,
    one anti-vertex query per size over one shared session.
    """
    session = as_session(graph)
    return {
        k: len(maximal_cliques_of_size(session, k, engine=engine))
        for k in range(1, max_k + 1)
    }


# ----------------------------------------------------------------------
# Pseudo-cliques (density threshold)
# ----------------------------------------------------------------------

def _density_patterns(k: int, density: float):
    """All connected k-vertex patterns whose edge density >= ``density``."""
    from ..pattern.generators import generate_all_vertex_induced

    total_pairs = k * (k - 1) // 2
    out = []
    for p in generate_all_vertex_induced(k):
        if total_pairs and p.num_edges / total_pairs >= density:
            out.append(p)
    return out


def pseudo_clique_count(
    graph: DataGraph | MiningSession, k: int, density: float
) -> int:
    """Number of k-vertex induced subgraphs with edge density >= ``density``.

    A pseudo-clique (§2.1) relaxes the fully-connected requirement to a
    density threshold; ``density=1.0`` degenerates to exact k-cliques.
    Counting is vertex-induced so each vertex set is counted once, under
    its actual induced pattern.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    session = as_session(graph)
    return sum(
        session.count(p, edge_induced=False)
        for p in _density_patterns(k, density)
    )


def pseudo_cliques(
    graph: DataGraph | MiningSession, k: int, density: float
) -> list[tuple[int, ...]]:
    """List the vertex sets of k-pseudo-cliques (sorted tuples)."""
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    session = as_session(graph)
    found: list[tuple[int, ...]] = []

    def on_match(m: Match) -> None:
        found.append(tuple(sorted(m.vertices())))

    for p in _density_patterns(k, density):
        session.match(p, on_match, edge_induced=False)
    return sorted(found)


# ----------------------------------------------------------------------
# Frequent cliques (MNI support threshold)
# ----------------------------------------------------------------------

def frequent_clique_sizes(
    graph: DataGraph | MiningSession,
    threshold: int,
    max_k: int | None = None,
) -> dict[int, int]:
    """Map ``k -> MNI support`` for every clique size meeting ``threshold``.

    Follows FSM's anti-monotone pruning (§2.1): the MNI support of K_k is
    non-increasing in k, so the scan stops at the first infrequent size.
    Because a clique's vertices form one automorphism orbit, the MNI
    support of K_k is simply the number of distinct data vertices
    participating in any k-clique.
    """
    session = as_session(graph)
    out: dict[int, int] = {}
    k = 2
    while max_k is None or k <= max_k:
        pattern = generate_clique(k)
        domain = Domain(k, orbits=orbit_partition(pattern))

        def on_match(m: Match, _domain=domain) -> None:
            _domain.update(m.mapping)

        session.match(pattern, on_match)
        support = domain.support()
        if support < threshold:
            break
        out[k] = support
        k += 1
    return out
