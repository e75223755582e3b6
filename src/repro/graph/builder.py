"""Construction of :class:`~repro.graph.graph.DataGraph` from edge lists."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import GraphError
from .graph import DataGraph

__all__ = ["from_edges", "from_adjacency", "induced_subgraph"]


def from_edges(
    edges: Iterable[tuple[int, int]],
    labels: Sequence[int] | Mapping[int, int] | None = None,
    num_vertices: int | None = None,
    name: str = "graph",
) -> DataGraph:
    """Build a graph from an iterable of undirected edges.

    Duplicate edges and self-loops are dropped; vertex ids must be
    non-negative integers.  Isolated vertices exist only if covered by
    ``num_vertices`` or by the labels sequence.

    Parameters
    ----------
    edges: pairs ``(u, v)``; order within a pair is irrelevant.
    labels: per-vertex labels, as a dense sequence or a mapping; vertices
        absent from a mapping get label ``0``.
    num_vertices: force the vertex count (must cover the largest endpoint).
    name: dataset name carried on the graph.
    """
    edges = list(edges)
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    if ends.size != 2 * len(edges):
        raise GraphError("edges must be (u, v) pairs")
    us, vs = ends[0::2], ends[1::2]
    if ends.size and int(ends.min()) < 0:
        bad = int(np.flatnonzero((us < 0) | (vs < 0))[0])
        raise GraphError(f"negative vertex id in edge {edges[bad]}")
    proper = us != vs
    us, vs = us[proper], vs[proper]

    n = int(max(us.max(), vs.max())) + 1 if us.size else 0
    if labels is not None and not isinstance(labels, Mapping):
        n = max(n, len(labels))
    if num_vertices is not None:
        if num_vertices < n:
            raise GraphError(
                f"num_vertices={num_vertices} smaller than max endpoint+1={n}"
            )
        n = num_vertices

    # Both directions of every edge as sorted, duplicate-free keys
    # ``u * n + v`` are the CSR rows in order.  (Sort + neighbour
    # compare, not np.unique: its hashing path costs 5x the time and
    # twice the memory here.)
    stride = max(n, 1)
    keys = np.concatenate([us * stride + vs, vs * stride + us])
    keys.sort()
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    owners, flat = np.divmod(keys[fresh], stride)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=offsets[1:])

    if isinstance(labels, Mapping):
        labels = [labels.get(u, 0) for u in range(n)]
    elif labels is not None and len(labels) != n:
        raise GraphError(f"labels length {len(labels)} != vertex count {n}")

    return DataGraph.from_csr(offsets, flat, labels, name=name)


def from_adjacency(
    adjacency: Mapping[int, Iterable[int]],
    labels: Mapping[int, int] | None = None,
    name: str = "graph",
) -> DataGraph:
    """Build a graph from an adjacency mapping ``{u: neighbors}``.

    The mapping need not be symmetric; edges are symmetrized.
    """
    edges = [(u, v) for u, nbrs in adjacency.items() for v in nbrs]
    num_vertices = max(adjacency.keys(), default=-1) + 1
    for u, v in edges:
        num_vertices = max(num_vertices, u + 1, v + 1)
    return from_edges(edges, labels=labels, num_vertices=num_vertices, name=name)


def induced_subgraph(graph: DataGraph, vertices: Iterable[int]) -> DataGraph:
    """Vertex-induced subgraph, with vertices renamed densely to 0..k-1.

    Preserves labels; the renaming follows the sorted order of ``vertices``.
    """
    keep = sorted(set(vertices))
    new_id = {old: new for new, old in enumerate(keep)}
    edges = [
        (new_id[u], new_id[v])
        for u, v in graph.subgraph_edges(keep)
    ]
    labels = None
    if graph.is_labeled:
        labels = [graph.label(old) for old in keep]
    return from_edges(
        edges, labels=labels, num_vertices=len(keep), name=f"{graph.name}-sub"
    )
