"""Binary graph serialization: compressed ``.npz`` and the mmap ``.rgx`` store.

Text edge lists are convenient but slow to parse and large on disk; the
original Peregrine converts inputs to a packed binary adjacency format at
load time for exactly this reason.  This module provides two equivalents
for our substrate:

* ``save_npz`` / ``load_npz`` — the degree-prefixed CSR arrays (offsets +
  flattened neighbor ids) plus optional labels, stored via
  ``numpy.savez_compressed``.  Compact, but loading decompresses and
  copies every array into fresh heap memory.
* ``save_mmap`` / ``load_mmap`` / :class:`GraphStore` — the ``.rgx``
  on-disk tier: a fixed 64-byte header followed by 64-byte-aligned raw
  ``int64`` sections (offsets, neighbors, optional labels).  Opening one
  is three ``mmap`` calls; the arrays are wrapped zero-copy by
  :class:`~repro.graph.graph.DataGraph`, engine views alias the same
  pages, and worker processes re-opening the file share them through
  the OS page cache instead of shared-memory copies.

Both formats are versioned so later readers reject incompatible files
instead of mis-parsing them.

``.rgx`` layout (all integers little-endian ``int64``)::

    0   magic     b"RGXGRAPH"
    8   version   (currently 1)
    16  num_vertices
    24  num_edges            (undirected; neighbor entries = 2 * edges)
    32  flags                bit 0: labels present, bit 1: degree-sorted
    40  reserved  (zeros to byte 64)
    64  offsets   (num_vertices + 1) int64, then zero-pad to 64B
    ..  neighbors (2 * num_edges)   int64, then zero-pad to 64B
    ..  labels    (num_vertices)    int64, only when flag bit 0 is set
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..errors import GraphFormatError
from .graph import DataGraph

__all__ = [
    "save_npz",
    "load_npz",
    "save_mmap",
    "load_mmap",
    "open_graph",
    "GraphStore",
    "FORMAT_VERSION",
    "MMAP_VERSION",
    "MMAP_MAGIC",
]

FORMAT_VERSION = 1

MMAP_MAGIC = b"RGXGRAPH"
MMAP_VERSION = 1
_HEADER_SIZE = 64
_ALIGN = 64
_FLAG_LABELS = 1
_FLAG_DEGREE_SORTED = 2


# ----------------------------------------------------------------------
# Compressed .npz archives
# ----------------------------------------------------------------------


def save_npz(graph: DataGraph, path: str | os.PathLike) -> None:
    """Write a graph (and its labels, if any) as a compressed ``.npz``.

    Stores the graph's own CSR offsets/neighbors ``int64`` arrays.
    """
    offsets, flat, labels = graph.csr_arrays()
    arrays = {
        "version": np.array([FORMAT_VERSION], dtype=np.int64),
        "offsets": offsets,
        "neighbors": flat,
    }
    if labels is not None:
        arrays["labels"] = labels
    np.savez_compressed(os.fspath(path), **arrays)


def load_npz(path: str | os.PathLike, name: str | None = None) -> DataGraph:
    """Load a graph written by :func:`save_npz`.

    The decompressed CSR arrays are wrapped directly.
    """
    path = os.fspath(path)
    with np.load(path) as data:
        if "version" not in data or int(data["version"][0]) != FORMAT_VERSION:
            raise GraphFormatError(
                f"{path}: not a repro graph archive (missing or unknown format version)"
            )
        offsets = np.ascontiguousarray(data["offsets"], dtype=np.int64)
        flat = np.ascontiguousarray(data["neighbors"], dtype=np.int64)
        labels = (
            np.ascontiguousarray(data["labels"], dtype=np.int64)
            if "labels" in data
            else None
        )
    if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != flat.size:
        raise GraphFormatError(f"{path}: offsets do not span the neighbor array")
    if name is None:
        name = os.path.basename(path)
        if name.endswith(".npz"):
            name = name[:-4]
    return DataGraph.from_csr(offsets, flat, labels, name=name)


# ----------------------------------------------------------------------
# The mmap .rgx store
# ----------------------------------------------------------------------


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def save_mmap(graph: DataGraph, path: str | os.PathLike) -> None:
    """Write ``graph`` as an ``.rgx`` mmap store (see module docstring).

    Records whether the graph is already degree-sorted so reloading a
    converted store skips the ordering pass entirely.
    """
    offsets, flat, labels = graph.csr_arrays()
    flags = 0
    if labels is not None:
        flags |= _FLAG_LABELS
    if graph.is_degree_ordered():
        flags |= _FLAG_DEGREE_SORTED
    n = int(offsets.size) - 1
    with open(os.fspath(path), "wb") as fh:
        header = MMAP_MAGIC + struct.pack(
            "<4q", MMAP_VERSION, n, int(flat.size) // 2, flags
        )
        fh.write(header.ljust(_HEADER_SIZE, b"\0"))
        for arr in (offsets, flat) + ((labels,) if labels is not None else ()):
            pad = _aligned(fh.tell()) - fh.tell()
            if pad:
                fh.write(b"\0" * pad)
            arr.tofile(fh)


def _map_section(path: str, offset: int, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.memmap(path, dtype=np.int64, mode="r", offset=offset, shape=(count,))


class GraphStore:
    """An opened ``.rgx`` file: header fields plus mapped CSR sections.

    Construction is O(1): the header is read and validated, and each
    section becomes a read-only ``numpy.memmap`` — no adjacency is
    materialized until something touches the pages.  ``graph()`` wraps
    the sections as a :class:`DataGraph` (cached), keeping a reference
    to the store so the parallel runtime can point worker processes at
    the same file.
    """

    __slots__ = (
        "path",
        "num_vertices",
        "num_edges",
        "has_labels",
        "degree_sorted",
        "file_size",
        "offsets",
        "neighbors",
        "labels",
        "_graph",
    )

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        try:
            self.file_size = os.path.getsize(self.path)
            with open(self.path, "rb") as fh:
                head = fh.read(_HEADER_SIZE)
        except OSError as exc:
            raise GraphFormatError(f"{self.path}: cannot open ({exc})") from exc
        if len(head) < _HEADER_SIZE or head[:8] != MMAP_MAGIC:
            raise GraphFormatError(
                f"{self.path}: not an .rgx graph store (bad magic)"
            )
        version, n, m, flags = struct.unpack_from("<4q", head, 8)
        if version != MMAP_VERSION:
            raise GraphFormatError(
                f"{self.path}: unsupported .rgx version {version} "
                f"(reader understands {MMAP_VERSION})"
            )
        if n < 0 or m < 0:
            raise GraphFormatError(f"{self.path}: negative header counts")
        self.num_vertices = int(n)
        self.num_edges = int(m)
        self.has_labels = bool(flags & _FLAG_LABELS)
        self.degree_sorted = bool(flags & _FLAG_DEGREE_SORTED)

        off_offsets = _HEADER_SIZE
        off_neighbors = _aligned(off_offsets + (self.num_vertices + 1) * 8)
        off_labels = _aligned(off_neighbors + 2 * self.num_edges * 8)
        # Writers pad before each section, not after the last one.
        if self.has_labels:
            expected = off_labels + self.num_vertices * 8
        else:
            expected = off_neighbors + 2 * self.num_edges * 8
        if self.file_size < expected:
            raise GraphFormatError(
                f"{self.path}: truncated .rgx store "
                f"({self.file_size} bytes, need {expected})"
            )
        self.offsets = _map_section(
            self.path, off_offsets, self.num_vertices + 1
        )
        self.neighbors = _map_section(self.path, off_neighbors, 2 * self.num_edges)
        self.labels = (
            _map_section(self.path, off_labels, self.num_vertices)
            if self.has_labels
            else None
        )
        if self.offsets.size == 0 or self.offsets[0] != 0 or (
            self.offsets[-1] != 2 * self.num_edges
        ):
            raise GraphFormatError(
                f"{self.path}: offsets do not span the neighbor section"
            )
        self._graph: DataGraph | None = None

    def graph(self, name: str | None = None) -> DataGraph:
        """The store's :class:`DataGraph` (cached)."""
        if self._graph is None:
            if name is None:
                name = os.path.basename(self.path)
                if name.endswith(".rgx"):
                    name = name[:-4]
            self._graph = DataGraph.from_csr(
                self.offsets,
                self.neighbors,
                self.labels,
                name=name,
                degree_sorted=self.degree_sorted or None,
                store=self,
            )
        return self._graph

    def info(self) -> dict:
        """Header summary for ``repro-mine graph info`` and tooling."""
        return {
            "path": self.path,
            "version": MMAP_VERSION,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "has_labels": self.has_labels,
            "degree_sorted": self.degree_sorted,
            "file_size": self.file_size,
        }

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the mapped sections."""
        mm = getattr(self.offsets, "_mmap", None)
        return bool(mm is not None and mm.closed)

    def close(self) -> None:
        """Release the mapped sections (and their file descriptors).

        A long-lived process serving many graphs cannot rely on garbage
        collection to drop mmap handles — an evicted registry entry must
        free its descriptors *now*, not at the next collection cycle.
        Closing is idempotent; empty sections (zero-edge graphs) have no
        backing map and are skipped.  Touching the store's arrays (or any
        graph/view aliasing them) after close raises ``ValueError`` —
        callers evicting a store must drop every consumer first.
        """
        self._graph = None
        for arr in (self.offsets, self.neighbors, self.labels):
            mm = getattr(arr, "_mmap", None)
            if mm is not None and not mm.closed:
                mm.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphStore({self.path!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, labels={self.has_labels}, "
            f"degree_sorted={self.degree_sorted})"
        )


def load_mmap(path: str | os.PathLike, name: str | None = None) -> DataGraph:
    """Open an ``.rgx`` store and wrap its sections as a graph.

    O(header) Python work: the graph and the engines' CSR views alias
    the mapped sections directly.
    """
    return GraphStore(path).graph(name)


def open_graph(path: str | os.PathLike, name: str | None = None) -> DataGraph:
    """Load a graph from any supported on-disk format, by extension.

    ``.rgx`` → :func:`load_mmap`, ``.npz`` → :func:`load_npz`, anything
    else is parsed as a whitespace edge list.  This is what
    session/CLI path arguments route through.
    """
    text = os.fspath(path)
    if text.endswith(".rgx"):
        return load_mmap(text, name=name)
    if text.endswith(".npz"):
        return load_npz(text, name=name)
    from .io import load_edge_list

    return load_edge_list(text, name=name)
