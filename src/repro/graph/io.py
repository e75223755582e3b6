"""Edge-list file I/O for data graphs.

The on-disk format mirrors what Peregrine and the systems it compares
against consume: whitespace-separated edge lists, one edge per line, with
``#``/``%`` comment lines.  Labeled graphs add a companion label file of
``vertex label`` lines (or inline via :func:`load_labeled`).
"""

from __future__ import annotations

import os
from typing import Iterable

from ..errors import GraphFormatError
from .builder import from_edges
from .graph import DataGraph

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "load_labels",
    "save_labels",
    "load_labeled",
]

_COMMENT_PREFIXES = ("#", "%", "//")


def _parse_int(token: str, path: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(
            f"{path}:{line_no}: expected integer, got {token!r}"
        ) from None


def load_edge_list(path: str | os.PathLike, name: str | None = None) -> DataGraph:
    """Load an undirected graph from a whitespace-separated edge-list file."""
    path = os.fspath(path)
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{line_no}: expected 'u v', got {line!r}"
                )
            u = _parse_int(parts[0], path, line_no)
            v = _parse_int(parts[1], path, line_no)
            edges.append((u, v))
    graph_name = name if name is not None else os.path.basename(path)
    return from_edges(edges, name=graph_name)


def save_edge_list(graph: DataGraph, path: str | os.PathLike) -> None:
    """Write the graph as an edge-list file (u < v, one edge per line)."""
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        handle.write(f"# {graph.name}: {graph.num_vertices} vertices, "
                     f"{graph.num_edges} edges\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def load_labels(path: str | os.PathLike) -> dict[int, int]:
    """Load a ``vertex label`` file into a mapping."""
    path = os.fspath(path)
    labels: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    f"{path}:{line_no}: expected 'vertex label', got {line!r}"
                )
            v = _parse_int(parts[0], path, line_no)
            lab = _parse_int(parts[1], path, line_no)
            labels[v] = lab
    return labels


def save_labels(graph: DataGraph, path: str | os.PathLike) -> None:
    """Write per-vertex labels as ``vertex label`` lines."""
    if not graph.is_labeled:
        raise GraphFormatError("cannot save labels of an unlabeled graph")
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        for v in graph.vertices():
            handle.write(f"{v} {graph.label(v)}\n")


def load_labeled(
    edge_path: str | os.PathLike,
    label_path: str | os.PathLike,
    name: str | None = None,
) -> DataGraph:
    """Load a labeled graph from an edge-list file plus a label file."""
    unlabeled = load_edge_list(edge_path, name=name)
    labels = load_labels(label_path)
    offsets, flat, _ = unlabeled.csr_arrays()
    return DataGraph.from_csr(
        offsets,
        flat,
        [labels.get(v, 0) for v in range(unlabeled.num_vertices)],
        name=unlabeled.name,
    )
