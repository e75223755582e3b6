"""The data graph: sorted adjacency rows in CSR arrays.

The :class:`DataGraph` is Peregrine's substrate (§5.5 of the paper): an
undirected graph whose per-vertex sorted adjacency rows are stored back
to back in one ``neighbors`` array, delimited by an ``offsets`` array of
``n + 1`` entries, plus an optional per-vertex ``labels`` array — all
``int64``, possibly memory-mapped.  Vertex ids are dense integers
``0..n-1``.  Two properties matter for the matching engines:

* rows are sorted, so candidate generation can use binary search to
  restrict candidates to a partial-order-compatible range, and set
  intersections / differences run in merge fashion;
* vertices are (optionally) *degree-ordered* — renamed so that
  ``u < v  iff  degree(u) <= degree(v)`` (ties broken by original id), the
  ordering §5.2 uses for early pruning and load balancing.

This is the only storage: the constructor converts its rows to CSR once,
:meth:`DataGraph.from_csr` wraps existing arrays zero-copy (how an
``.rgx`` store opens in O(header) work, :mod:`repro.graph.binary_io`),
and the batched engines read the same arrays directly.  What they derive
from them — :meth:`~DataGraph.degrees`, :meth:`~DataGraph.adjacency_keys`
and :meth:`~DataGraph.hub_index` — is built at first request and cached
on the graph; graphs are immutable, so those caches never go stale.
``neighbors()``, ``labels()`` and ``vertices_with_label()`` return
read-only arrays for every graph; call ``.tolist()`` on them where
Python lists or plain ints are wanted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import GraphError

__all__ = ["DataGraph"]

# Hub membership: a vertex earns a packed dense bit row when its degree
# reaches both this floor and n / 64.  The floor keeps tiny graphs on
# pure searchsorted (row builds are not free); the density cut bounds
# the index at 8x the hubs' own adjacency bytes (a row costs n/8 bytes
# vs >= 8 * n/64 adjacency).  ``benchmarks/bench_storage.py`` measures
# the membership crossover.  Read at call time, so tests force hubs on
# small graphs by patching this value before a graph's first
# ``hub_index()``.
HUB_MIN_DEGREE = 128


def hub_degree_threshold(num_vertices: int) -> int:
    """Minimum degree for a vertex to earn a dense membership row."""
    return max(HUB_MIN_DEGREE, num_vertices >> 6)


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only int64 array, aliasing it when it already is one."""
    view = np.asarray(values, dtype=np.int64).view()
    view.flags.writeable = False
    return view


_NO_VERTICES = _frozen(np.empty(0, dtype=np.int64))


class DataGraph:
    """Undirected data graph with sorted adjacency rows and optional labels.

    Instances are immutable once constructed; build them with
    :func:`repro.graph.builder.from_edges`, the loaders in
    :mod:`repro.graph.io` / :mod:`repro.graph.binary_io`, or
    :meth:`from_csr` when the CSR arrays already exist.

    Parameters
    ----------
    adjacency:
        Sequence of sorted, duplicate-free neighbor rows, one per vertex.
        Must be symmetric (``v in adjacency[u]`` iff ``u in adjacency[v]``).
    labels:
        Optional per-vertex integer labels (``None`` for an unlabeled graph).
    name:
        Optional human-readable dataset name (used in reports).
    validate:
        When true (default), verify sortedness and symmetry; disable only
        for trusted, pre-validated input (e.g. the builder's output).
    """

    __slots__ = (
        "_offsets",
        "_flat",
        "_labels",
        "name",
        "_label_index",
        "_ordered_cache",
        "_degrees",
        "_adj_keys",
        "_hub_index",
        "_session_cache",
        "_degree_sorted",
        "_store",
    )

    def __init__(
        self,
        adjacency: Sequence[Sequence[int]],
        labels: Sequence[int] | None = None,
        name: str = "graph",
        validate: bool = True,
    ):
        n = len(adjacency)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, adjacency), dtype=np.int64, count=n),
            out=offsets[1:],
        )
        flat = np.fromiter(
            chain.from_iterable(adjacency), dtype=np.int64, count=int(offsets[-1])
        )
        self._wrap(offsets, flat, labels, name, validate)

    @classmethod
    def from_csr(
        cls,
        offsets,
        neighbors,
        labels=None,
        name: str = "graph",
        validate: bool = False,
        degree_sorted: bool | None = None,
        store=None,
    ) -> "DataGraph":
        """Wrap existing CSR arrays zero-copy.

        ``offsets`` has ``n + 1`` entries with ``offsets[0] == 0``;
        ``neighbors`` concatenates the sorted per-vertex rows.  The
        arrays (numpy ``int64``, possibly memory-mapped) are aliased,
        not copied, so a graph loaded from the ``.rgx`` store does only
        O(1) Python work here.  ``degree_sorted`` records whether ids
        already increase with degree (``None`` = unknown, checked
        lazily); ``store`` optionally pins the backing
        :class:`~repro.graph.binary_io.GraphStore` so the parallel
        runtime can re-open the same file in workers.
        """
        obj = cls.__new__(cls)
        obj._wrap(offsets, neighbors, labels, name, validate, degree_sorted, store)
        return obj

    def _wrap(
        self, offsets, flat, labels, name, validate, degree_sorted=None, store=None
    ) -> None:
        self._offsets = _frozen(offsets)
        self._flat = _frozen(flat)
        self._labels = None if labels is None else _frozen(labels)
        self.name = name
        self._label_index: dict[int, np.ndarray] = {}
        self._ordered_cache: tuple["DataGraph", np.ndarray] | None = None
        self._degrees: np.ndarray | None = None
        self._adj_keys: np.ndarray | None = None
        self._hub_index = None  # False once checked and hub-free
        # Shared default MiningSession; owned and populated by
        # repro.core.session.MiningSession.for_graph so one-shot api
        # calls share plan/start caches across queries.
        self._session_cache = None
        self._degree_sorted = degree_sorted
        self._store = store
        if self._offsets.ndim != 1 or self._offsets.size < 1:
            raise GraphError("offsets must be a 1-d array with >= 1 entry")
        if self._labels is not None and self._labels.size != self.num_vertices:
            raise GraphError(
                f"labels length {self._labels.size} != vertex count "
                f"{self.num_vertices}"
            )
        if validate:
            self._validate_csr()

    def _validate_csr(self) -> None:
        """Reject out-of-range ids, self-loops, unsorted or duplicate
        row entries and edges missing their reverse (all vectorized)."""
        offsets, flat = self._offsets, self._flat
        n = offsets.size - 1
        if offsets[0] != 0 or offsets[-1] != flat.size:
            raise GraphError("offsets do not span the neighbor array")
        degrees = self.degrees()
        if degrees.size and int(degrees.min()) < 0:
            raise GraphError("offsets are not non-decreasing")
        if flat.size:
            if int(flat.min()) < 0 or int(flat.max()) >= n:
                raise GraphError("neighbor id out of range")
        owners = np.repeat(np.arange(n, dtype=np.int64), degrees)
        if np.any(owners == flat):
            raise GraphError("self-loop in neighbor array")
        # Strictly increasing inside each row: every in-row step rises.
        inc = np.diff(flat) > 0
        row_start = np.zeros(flat.size, dtype=bool)
        starts = offsets[1:-1]
        row_start[starts[starts < flat.size]] = True
        if flat.size > 1 and not np.all(inc | row_start[1:]):
            raise GraphError("adjacency rows are not sorted/unique")
        # Symmetry: the multiset of (u, v) keys equals its transpose.
        stride = np.int64(max(n, 1))
        keys = owners * stride + flat
        if not np.array_equal(np.sort(flat * stride + owners), keys):
            raise GraphError("edge missing reverse direction")

    @property
    def backing_store(self):
        """The :class:`GraphStore` this graph maps, or ``None``."""
        return self._store

    def csr_arrays(self):
        """The ``(offsets, neighbors, labels)`` arrays (read-only, aliased)."""
        return self._offsets, self._flat, self._labels

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices |V(G)|."""
        return self._offsets.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges |E(G)|."""
        return self._flat.size // 2

    @property
    def is_labeled(self) -> bool:
        """Whether the graph carries vertex labels."""
        return self._labels is not None

    def vertices(self) -> range:
        """All vertex ids as a range."""
        return range(self.num_vertices)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbors of ``u`` (a read-only slice of the CSR array)."""
        return self._flat[self._offsets[u]:self._offsets[u + 1]]

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        return int(self._offsets[u + 1] - self._offsets[u])

    def label(self, u: int) -> int | None:
        """Label of vertex ``u`` (``None`` when unlabeled)."""
        return int(self._labels[u]) if self._labels is not None else None

    def labels(self) -> np.ndarray | None:
        """The read-only label array, or ``None`` for unlabeled graphs."""
        return self._labels

    def num_labels(self) -> int:
        """Number of distinct labels |L(G)| (0 for unlabeled graphs)."""
        return 0 if self._labels is None else int(np.unique(self._labels).size)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge (u, v) exists, via binary search."""
        if u == v:
            return False
        nbrs = self.neighbors(u)
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and bool(nbrs[i] == v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as (u, v) pairs with u < v."""
        for u in range(self.num_vertices):
            for v in self.neighbors_above(u, u).tolist():
                yield (u, v)

    def max_degree(self) -> int:
        """Maximum vertex degree (0 for the empty graph)."""
        return int(self.degrees().max()) if self.num_vertices else 0

    def avg_degree(self) -> float:
        """Average vertex degree (0.0 for the empty graph)."""
        n = self.num_vertices
        return 2.0 * self.num_edges / n if n else 0.0

    # ------------------------------------------------------------------
    # Derived arrays for the batched engines (lazy, cached, read-only)
    # ------------------------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Per-vertex degree array: ``diff(offsets)``, computed once.

        The one degree array every reader shares — validation, the degree
        ordering, the batched engines' min-degree pivot picks and the
        ``degree + 1`` weights of fused slices and process chunks.
        """
        if self._degrees is None:
            self._degrees = _frozen(np.diff(self._offsets))
        return self._degrees

    def adjacency_keys(self) -> np.ndarray:
        """Globally sorted ``owner * (n + 1) + neighbor`` keys (lazy).

        The neighbor array is sorted *per row* only; fusing the owner
        into each entry yields one globally sorted array, so a single
        ``searchsorted`` answers per-element queries over *different*
        rows at once — the primitive every frontier-batched membership
        test and bound rank is built on.  The ``n + 1`` multiplier leaves
        headroom for queries with the sentinel bounds ``-1`` and ``n``
        without colliding into adjacent rows.
        """
        if self._adj_keys is None:
            n = self.num_vertices
            owners = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
            self._adj_keys = _frozen(owners * (n + 1) + self._flat)
        return self._adj_keys

    def hub_index(self) -> HubMembershipIndex | None:
        """Packed membership bit rows for the hubs, or ``None``.

        Built at first request (the first batched engine over this
        graph) for every vertex whose degree reaches
        :func:`hub_degree_threshold`, and cached —
        the miss too, so a graph without hubs pays one ``max`` over
        :meth:`degrees` and nothing else.
        """
        if self._hub_index is None:
            threshold = hub_degree_threshold(self.num_vertices)
            degrees = self.degrees()
            if degrees.size and int(degrees.max()) >= threshold:
                self._hub_index = HubMembershipIndex(self, threshold)
            else:
                self._hub_index = False
        return self._hub_index or None

    # ------------------------------------------------------------------
    # Range-restricted access (partial-order support, §5.1 'PO' stage)
    # ------------------------------------------------------------------

    def neighbors_above(self, u: int, bound: int) -> np.ndarray:
        """Neighbors of ``u`` with id strictly greater than ``bound``."""
        nbrs = self.neighbors(u)
        return nbrs[bisect_right(nbrs, bound):]

    def neighbors_below(self, u: int, bound: int) -> np.ndarray:
        """Neighbors of ``u`` with id strictly less than ``bound``."""
        nbrs = self.neighbors(u)
        return nbrs[: bisect_left(nbrs, bound)]

    def neighbors_between(self, u: int, lo: int, hi: int) -> np.ndarray:
        """Neighbors v of ``u`` with ``lo < v < hi`` (exclusive bounds).

        ``lo=-1`` / ``hi=num_vertices`` express one-sided or absent bounds.
        """
        nbrs = self.neighbors(u)
        return nbrs[bisect_right(nbrs, lo): bisect_left(nbrs, hi)]

    # ------------------------------------------------------------------
    # Label index (used by the G-Miner-like baseline and labeled matching)
    # ------------------------------------------------------------------

    def vertices_with_label(self, label: int) -> np.ndarray:
        """Sorted vertex ids carrying ``label`` (read-only int64 array).

        Empty for unlabeled graphs.  Built lazily and cached per queried
        label (one vectorized scan each, so an mmap-backed load never
        pays for labels it does not filter on).
        """
        if self._labels is None:
            return _NO_VERTICES
        cached = self._label_index.get(label)
        if cached is None:
            cached = _frozen(np.flatnonzero(self._labels == label))
            self._label_index[label] = cached
        return cached

    # ------------------------------------------------------------------
    # Degree ordering (§5.2)
    # ------------------------------------------------------------------

    def degree_ordered(self) -> tuple["DataGraph", np.ndarray]:
        """Return a copy renamed so ids increase with degree, plus the map.

        In the renamed graph ``u < v`` implies ``degree(u) <= degree(v)``
        (ties keep their original id order).  Returns ``(graph,
        old_of_new)`` where ``old_of_new[new_id]`` is the original id, so
        callers can translate matches back.  The result is cached.

        A graph that is already degree-ordered — e.g. one whose backing
        store recorded the degree-sorted flag — returns *itself* with
        the identity map, so reopening a converted ``.rgx`` file never
        re-sorts.
        """
        if self._ordered_cache is None:
            self._ordered_cache = self._degree_ordered()
        return self._ordered_cache

    def _degree_ordered(self) -> tuple["DataGraph", np.ndarray]:
        offsets, flat = self._offsets, self._flat
        n = offsets.size - 1
        if self.is_degree_ordered():
            return self, _frozen(np.arange(n, dtype=np.int64))
        degrees = self.degrees()
        order = np.argsort(degrees, kind="stable")
        new_of_old = np.empty(n, dtype=np.int64)
        new_of_old[order] = np.arange(n, dtype=np.int64)
        new_degrees = degrees[order]
        new_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(new_degrees, out=new_offsets[1:])
        # Gather each new row from its old position, rename the values,
        # then re-sort rows in one pass via globally ordered (row, value)
        # keys — no per-vertex Python loop anywhere.
        row_ids = np.repeat(np.arange(n, dtype=np.int64), new_degrees)
        local = np.arange(flat.size, dtype=np.int64) - np.repeat(
            new_offsets[:-1], new_degrees
        )
        gathered = flat[offsets[order][row_ids] + local]
        stride = np.int64(max(n, 1))
        keys = row_ids * stride + new_of_old[gathered]
        keys.sort()
        new_flat = keys - row_ids * stride
        new_labels = self._labels[order] if self._labels is not None else None
        renamed = DataGraph.from_csr(
            new_offsets, new_flat, new_labels, name=self.name, degree_sorted=True
        )
        return renamed, _frozen(order)

    def is_degree_ordered(self) -> bool:
        """Whether vertex ids already increase with degree."""
        if self._degree_sorted is None:
            degrees = self.degrees()
            self._degree_sorted = bool(np.all(degrees[:-1] <= degrees[1:]))
        return self._degree_sorted

    # ------------------------------------------------------------------
    # Conversions & misc
    # ------------------------------------------------------------------

    def subgraph_edges(self, vertices: Iterable[int]) -> list[tuple[int, int]]:
        """Edges of the subgraph induced by ``vertices`` (u < v pairs)."""
        vset = sorted(set(vertices))
        found = []
        for i, u in enumerate(vset):
            for v in vset[i + 1:]:
                if self.has_edge(u, v):
                    found.append((u, v))
        return found

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (for tests and cross-validation)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices())
        g.add_edges_from(self.edges())
        if self._labels is not None:
            nx.set_node_attributes(
                g, dict(enumerate(self._labels.tolist())), "label"
            )
        return g

    def memory_bytes(self) -> int:
        """Byte footprint of the CSR arrays (8 B per entry).

        Used by the Fig 13 memory accounting; counts ``n`` offsets, the
        neighbor entries and the labels, so numbers are comparable with
        the baselines' embedding stores.
        """
        n = self.num_vertices
        return 8 * (self._flat.size + n + (n if self.is_labeled else 0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lab = f", labels={self.num_labels()}" if self.is_labeled else ""
        return (
            f"DataGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}{lab})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataGraph):
            return NotImplemented
        if (self._labels is None) != (other._labels is None):
            return False
        return (
            np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._flat, other._flat)
            and (self._labels is None or np.array_equal(self._labels, other._labels))
        )

    def __hash__(self):  # graphs are mutable-free but big; identity hash
        return id(self)

    def label_histogram(self) -> Mapping[int, int]:
        """Histogram of label frequencies (empty for unlabeled graphs)."""
        if self._labels is None:
            return {}
        values, counts = np.unique(self._labels, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))


class HubMembershipIndex:
    """Dense membership bit rows for hub neighborhoods.

    ``searchsorted`` over the global adjacency keys answers a membership
    query in O(log E) — unbeatable for sparse rows, but on power-law
    hubs the same dense row is probed over and over and every probe
    repays the full binary search.  This index gives each vertex whose
    degree clears the threshold a packed bit row in one
    ``(num_hubs, ceil(n / 8))`` uint8 matrix, filled by one scatter over
    the hubs' CSR rows, so a batched query against hub owners is two
    vectorized lookups — ``bits[row, v >> 3] >> (v & 7)`` — with no
    search at all.  Non-hub owners fall through to the caller's
    searchsorted kernel; the split is decided per *vertex* at build
    time, per *query element* at run time.
    """

    __slots__ = ("num_vertices", "hubs", "row_of", "bits")

    def __init__(self, graph: DataGraph, threshold: int):
        n = graph.num_vertices
        offsets, flat, _ = graph.csr_arrays()
        degrees = graph.degrees()
        self.num_vertices = n
        self.hubs = np.flatnonzero(degrees >= threshold).astype(np.int64)
        self.row_of = np.full(n, -1, dtype=np.int64)
        self.row_of[self.hubs] = np.arange(self.hubs.size, dtype=np.int64)
        # Gather every hub's CSR row back to back, then set bit v & 7 of
        # byte v >> 3 in the row's line of the matrix.
        hub_degrees = degrees[self.hubs]
        rows = np.repeat(np.arange(self.hubs.size), hub_degrees)
        row_starts = np.cumsum(hub_degrees) - hub_degrees
        values = flat[
            np.arange(rows.size)
            + np.repeat(offsets[self.hubs] - row_starts, hub_degrees)
        ]
        self.bits = np.zeros((self.hubs.size, (n + 7) >> 3), dtype=np.uint8)
        np.bitwise_or.at(
            self.bits,
            (rows, values >> 3),
            np.left_shift(1, values & 7).astype(np.uint8),
        )
        for arr in (self.hubs, self.row_of, self.bits):
            arr.flags.writeable = False

    def member(
        self,
        owners: np.ndarray,
        values: np.ndarray,
        fallback: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Elementwise membership, hub rows via bits, the rest via ``fallback``."""
        rows = self.row_of[owners]
        on_hub = rows >= 0
        if not on_hub.any():
            return fallback(owners, values)
        if on_hub.all():
            return (
                self.bits[rows, values >> 3] >> (values & 7) & 1
            ).astype(bool)
        out = np.empty(owners.size, dtype=bool)
        hub_values = values[on_hub]
        out[on_hub] = (
            self.bits[rows[on_hub], hub_values >> 3] >> (hub_values & 7) & 1
        ).astype(bool)
        rest = ~on_hub
        out[rest] = fallback(owners[rest], values[rest])
        return out

    def memory_bytes(self) -> int:
        """The packed matrix + the row map."""
        return self.bits.nbytes + self.row_of.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HubMembershipIndex({self.hubs.size} hubs, "
            f"{self.memory_bytes()} bytes)"
        )
