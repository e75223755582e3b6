"""Arabesque-like breadth-first filter-process enumeration (§2.2).

The "think like an embedding" model: every level materializes *all*
canonical embeddings of the current size, each produced by extending a
stored embedding with one vertex (or edge), each verified by a
canonicality check, and — for classification workloads — analyzed with an
isomorphism computation.  Exactly the per-embedding costs Figure 1
profiles, and the level-store is exactly the memory burden of Figure 13.

``materialize_first=True`` switches to RStream-mode cost accounting: the
join output is materialized (written to "disk") *before* filtering, so
non-canonical and filtered tuples still pay storage — reproducing
RStream's much larger explored counts in Figure 1b.

Budgets model the paper's failure cells: exceeding ``step_budget`` raises
:class:`~repro.errors.BudgetExceeded` (the 'x' timeout cells), exceeding
``store_budget`` raises :class:`~repro.errors.MemoryBudgetExceeded` (the
'—' OOM / '/' out-of-disk cells).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import BudgetExceeded, MemoryBudgetExceeded
from ..graph.graph import DataGraph
from ..mining.support import Domain
from ..profiling.counters import ExplorationCounters
from ..profiling.memory import StoreMeter, embedding_bytes
from .canonicality import is_canonical_embedding
from .edge_canonicality import is_canonical_edge_embedding
from .isomorphism import induced_code

__all__ = ["BFSEnumerator", "bfs_motif_count", "bfs_clique_count", "bfs_fsm"]


class BFSEnumerator:
    """Level-synchronous embedding enumerator with full cost accounting."""

    def __init__(
        self,
        graph: DataGraph,
        system: str = "arabesque-like",
        step_budget: int | None = None,
        store_budget: int | None = None,
        materialize_first: bool = False,
    ):
        self.graph = graph
        self.counters = ExplorationCounters(system=system)
        self.store = StoreMeter(budget_bytes=store_budget)
        self.step_budget = step_budget
        self.materialize_first = materialize_first

    # -- bookkeeping ----------------------------------------------------

    def _spend(self, steps: int = 1) -> None:
        self.counters.matches_explored += steps
        if (
            self.step_budget is not None
            and self.counters.matches_explored > self.step_budget
        ):
            raise BudgetExceeded(self.counters.matches_explored, self.step_budget)

    def _store_add(self, size: int) -> None:
        self.store.add_embedding(size)
        if self.store.over_budget():
            raise MemoryBudgetExceeded(
                self.store.live_bytes, self.store.budget_bytes
            )

    # -- vertex-induced exploration --------------------------------------

    def final_level_vertex_induced(
        self,
        size: int,
        keep: Callable[[tuple[int, ...], int], bool] | None = None,
    ) -> list[tuple[int, ...]]:
        """All canonical vertex embeddings of ``size`` vertices.

        ``keep(embedding, new_vertex)`` filters extensions *after* the
        canonicality check (the filter step of filter-process).
        """
        graph = self.graph
        level: list[tuple[int, ...]] = []
        for v in graph.vertices():
            self._spend()
            level.append((v,))
            self._store_add(1)
        for depth in range(2, size + 1):
            next_level: list[tuple[int, ...]] = []
            for emb in level:
                members = set(emb)
                candidates = set()
                for u in emb:
                    candidates.update(graph.neighbors(u))
                candidates.difference_update(members)
                for v in sorted(candidates):
                    new_emb = emb + (v,)
                    self._spend()
                    if self.materialize_first:
                        self._store_add(depth)
                    self.counters.canonicality_checks += 1
                    if not is_canonical_embedding(graph, new_emb):
                        continue
                    if keep is not None and not keep(new_emb, v):
                        continue
                    next_level.append(new_emb)
                    if not self.materialize_first:
                        self._store_add(depth)
            # The previous level can now be dropped (superstep boundary).
            for emb in level:
                self.store.remove_embedding(len(emb))
            level = next_level
        return level

    # -- edge-induced exploration (FSM) -----------------------------------

    def final_level_edge_induced(
        self,
        num_edges: int,
        prune_pattern: Callable[[tuple], bool] | None = None,
        on_level: Callable[[int, dict], None] | None = None,
    ) -> dict[tuple, Domain]:
        """Level-by-level edge-embedding exploration with label discovery.

        Returns ``{labeled canonical code: Domain}`` at the final level.
        ``prune_pattern(code)`` drops embeddings of infrequent patterns
        between levels (Arabesque's FSM filter).  ``on_level(size, tables)``
        observes each level's domain tables (for support evaluation).
        """
        graph = self.graph
        level: list[tuple[tuple[int, int], ...]] = []
        tables: dict[tuple, Domain] = {}

        def classify(edges: tuple[tuple[int, int], ...]) -> tuple | None:
            vertices = tuple(sorted({x for e in edges for x in e}))
            self.counters.isomorphism_checks += 1
            code, ordered_data, orbits = induced_labeled_code_for_edges(
                graph, edges, vertices
            )
            if code not in tables:
                tables[code] = Domain(len(vertices), orbits)
            tables[code].update(ordered_data)
            self.counters.aggregation_writes += len(ordered_data)
            return code

        for u, v in graph.edges():
            self._spend()
            edges = ((u, v),)
            level.append(edges)
            self._store_add(2)
            classify(edges)
        if on_level is not None:
            on_level(1, tables)

        for depth in range(2, num_edges + 1):
            if prune_pattern is not None:
                level = [
                    emb
                    for emb in level
                    if not prune_pattern(_edges_code(graph, emb, self))
                ]
            tables = {}
            next_level: list[tuple[tuple[int, int], ...]] = []
            for emb in level:
                edge_set = set(emb)
                members = {x for e in emb for x in e}
                for w in sorted(members):
                    for x in graph.neighbors(w):
                        edge = (w, x) if w < x else (x, w)
                        if edge in edge_set:
                            continue
                        new_emb = emb + (edge,)
                        self._spend()
                        if self.materialize_first:
                            self._store_add(depth + 1)
                        self.counters.canonicality_checks += 1
                        if not is_canonical_edge_embedding(new_emb):
                            continue
                        classify(new_emb)
                        next_level.append(new_emb)
                        if not self.materialize_first:
                            self._store_add(depth + 1)
            for emb in level:
                self.store.remove_embedding(len(emb) + 1)
            level = next_level
            if on_level is not None:
                on_level(depth, tables)
        self.counters.peak_store_bytes = self.store.peak_bytes
        return tables


def _edges_code(graph: DataGraph, emb, enumerator: BFSEnumerator) -> tuple:
    vertices = tuple(sorted({x for e in emb for x in e}))
    enumerator.counters.isomorphism_checks += 1
    code, _, _ = induced_labeled_code_for_edges(graph, emb, vertices)
    return code


def induced_labeled_code_for_edges(
    graph: DataGraph,
    edges: Sequence[tuple[int, int]],
    vertices: tuple[int, ...],
) -> tuple[tuple, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical labeled code of an edge-induced embedding.

    Returns ``(code, data order, automorphism orbits)``: the data vertices
    permuted into canonical positions, plus the canonical pattern's vertex
    orbits (needed so MNI domains merge symmetric positions — a canonical
    embedding only materializes one automorphic arrangement).
    """
    from ..pattern.canonical import canonical_sweep
    from ..pattern.pattern import Pattern

    index = {v: i for i, v in enumerate(vertices)}
    p = Pattern(num_vertices=len(vertices))
    for u, v in edges:
        p.add_edge(index[u], index[v])
    for v, i in index.items():
        label = graph.label(v)
        if label is not None:
            p.set_label(i, label)
    code, order, orbits = canonical_sweep(p)
    return code, tuple(vertices[i] for i in order), tuple(map(tuple, orbits))


# ----------------------------------------------------------------------
# Applications
# ----------------------------------------------------------------------


def bfs_motif_count(
    graph: DataGraph,
    size: int,
    step_budget: int | None = None,
    store_budget: int | None = None,
    system: str = "arabesque-like",
    materialize_first: bool = False,
) -> tuple[dict[tuple, int], ExplorationCounters]:
    """Motif counting the pattern-oblivious way: enumerate all connected
    vertex embeddings, isomorphism-classify each final one."""
    enum = BFSEnumerator(
        graph,
        system=system,
        step_budget=step_budget,
        store_budget=store_budget,
        materialize_first=materialize_first,
    )
    final = enum.final_level_vertex_induced(size)
    counts: dict[tuple, int] = {}
    for emb in final:
        enum.counters.isomorphism_checks += 1
        code = induced_code(graph, emb)
        counts[code] = counts.get(code, 0) + 1
    enum.counters.result_size = len(final)
    enum.counters.peak_store_bytes = enum.store.peak_bytes
    return counts, enum.counters


def bfs_clique_count(
    graph: DataGraph,
    k: int,
    step_budget: int | None = None,
    store_budget: int | None = None,
    system: str = "arabesque-like",
    materialize_first: bool = False,
    native_clique: bool = False,
) -> tuple[int, ExplorationCounters]:
    """k-clique counting via filtered BFS enumeration.

    ``native_clique`` models systems with built-in clique support
    (RStream, Fractal): no isomorphism computation on final embeddings.
    """
    enum = BFSEnumerator(
        graph,
        system=system,
        step_budget=step_budget,
        store_budget=store_budget,
        materialize_first=materialize_first,
    )

    def keep(emb: tuple[int, ...], new_vertex: int) -> bool:
        return all(
            graph.has_edge(new_vertex, u) for u in emb if u != new_vertex
        )

    final = enum.final_level_vertex_induced(k, keep=keep)
    if not native_clique:
        for emb in final:
            enum.counters.isomorphism_checks += 1
            induced_code(graph, emb)
    enum.counters.result_size = len(final)
    enum.counters.peak_store_bytes = enum.store.peak_bytes
    return len(final), enum.counters


def bfs_fsm(
    graph: DataGraph,
    num_edges: int,
    threshold: int,
    step_budget: int | None = None,
    store_budget: int | None = None,
    system: str = "arabesque-like",
    materialize_first: bool = False,
) -> tuple[dict[tuple, int], ExplorationCounters]:
    """FSM via exhaustive edge-induced BFS with per-embedding isomorphism.

    Embeddings of patterns that fall below the threshold are pruned
    between levels (anti-monotonicity), but — unlike Peregrine — every
    surviving embedding is still stored, checked and classified.
    """
    enum = BFSEnumerator(
        graph,
        system=system,
        step_budget=step_budget,
        store_budget=store_budget,
        materialize_first=materialize_first,
    )
    supports_by_level: dict[int, dict[tuple, int]] = {}

    def on_level(size: int, tables: dict[tuple, Domain]) -> None:
        supports_by_level[size] = {
            code: domain.support() for code, domain in tables.items()
        }
        # Domains are live memory too (the FSM memory wall of Fig 13).
        for domain in tables.values():
            enum.store.add(domain.memory_bytes())
        if enum.store.over_budget():
            raise MemoryBudgetExceeded(
                enum.store.live_bytes, enum.store.budget_bytes
            )

    def prune_current(code: tuple) -> bool:
        if not supports_by_level:
            return False
        last_level = max(supports_by_level)
        return supports_by_level[last_level].get(code, 0) < threshold

    tables = enum.final_level_edge_induced(
        num_edges, prune_pattern=prune_current, on_level=on_level
    )
    frequent = {
        code: domain.support()
        for code, domain in tables.items()
        if domain.support() >= threshold
    }
    enum.counters.result_size = len(frequent)
    enum.counters.peak_store_bytes = enum.store.peak_bytes
    return frequent, enum.counters
