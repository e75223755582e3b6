"""G-Miner-like purpose-built algorithms with task materialization (§6.4).

G-Miner is task-oriented: a mining job is decomposed into per-vertex tasks,
each *carrying its own subgraph* (the vertex's neighborhood data), which a
distributed task queue ships around.  Our reimplementation keeps the two
applications G-Miner ships — triangle counting and matching the labeled
pattern p2 — and models the task overhead faithfully: every task
materializes a private copy of the adjacency slices it needs before
computing on them.

That overhead is why Peregrine beats a purpose-built triangle counter in
Table 5 while G-Miner wins on p2 over Orkut: its *label index* (built at
preprocessing time) prefilters candidates by label, which pays off on
label-selective queries over dense graphs.
"""

from __future__ import annotations

from ..core.candidates import intersect_count
from ..graph.graph import DataGraph
from ..pattern.pattern import Pattern
from ..profiling.counters import ExplorationCounters
from ..profiling.memory import StoreMeter

__all__ = ["gminer_triangle_count", "gminer_match_p2", "TaskStats"]


class TaskStats(ExplorationCounters):
    """Counters extended with task-materialization accounting."""

    def __init__(self, system: str):
        super().__init__(system=system)
        self.extra["tasks"] = 0
        self.extra["task_bytes"] = 0


def gminer_triangle_count(graph: DataGraph) -> tuple[int, ExplorationCounters]:
    """Purpose-built triangle counting over per-vertex tasks.

    Each task copies the forward adjacency (neighbors with larger id) of
    its vertex and of each such neighbor — the task's shipped subgraph —
    then counts |N+(v) ∩ N+(w)| pairs.
    """
    counters = TaskStats("gminer-like")
    store = StoreMeter()
    total = 0
    for v in graph.vertices():
        counters.extra["tasks"] += 1
        forward = list(graph.neighbors_above(v, v))  # task-local copy
        task_bytes = 8 * len(forward)
        slices = {}
        for w in forward:
            slices[w] = list(graph.neighbors_above(w, w))  # shipped slice
            task_bytes += 8 * len(slices[w])
        counters.extra["task_bytes"] += task_bytes
        store.add(task_bytes)
        for w in forward:
            counters.matches_explored += 1
            total += intersect_count(forward, slices[w])
        store.remove(task_bytes)
    counters.result_size = total
    counters.peak_store_bytes = store.peak_bytes
    return total, counters


def gminer_match_p2(
    graph: DataGraph, pattern: Pattern
) -> tuple[int, ExplorationCounters]:
    """Match a fully-labeled tailed-triangle pattern via the label index.

    ``pattern`` must be p2-shaped: triangle (0,1,2) with tail (2,3) and a
    label on every vertex.  Candidates for each pattern vertex come from
    the preprocessed label index; the triangle is found by intersecting
    label-filtered adjacency, then the tail is attached.
    """
    counters = TaskStats("gminer-like")
    store = StoreMeter()
    labels = [pattern.label_of(u) for u in range(4)]
    if any(lab is None for lab in labels) or not graph.is_labeled:
        raise ValueError("gminer_match_p2 requires a fully labeled pattern and graph")
    lab0, lab1, lab2, lab3 = labels
    count = 0
    # Index preprocessing cost: the label index is materialized per task
    # batch (G-Miner builds it when loading the graph).
    for lab in set(labels):
        store.add(8 * len(graph.vertices_with_label(lab)))
    glabel = graph.label
    for v0 in graph.vertices_with_label(lab0).tolist():
        counters.extra["tasks"] += 1
        nbrs0 = graph.neighbors(v0)
        cand1 = [v for v in nbrs0 if glabel(v) == lab1]
        store.add(8 * len(cand1))
        for v1 in cand1:
            for v2 in graph.neighbors(v1):
                counters.matches_explored += 1
                if v2 == v0 or glabel(v2) != lab2:
                    continue
                if not graph.has_edge(v0, v2):
                    continue
                for v3 in graph.neighbors(v2):
                    if v3 in (v0, v1) or glabel(v3) != lab3:
                        continue
                    counters.matches_explored += 1
                    count += 1
        store.remove(8 * len(cand1))
    counters.result_size = count
    counters.peak_store_bytes = store.peak_bytes
    return count, counters
