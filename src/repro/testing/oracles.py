"""networkx oracles for exact match counts, independent of the engine.

For any pattern and small graph we can compute the exact number of
edge-induced (monomorphism) or vertex-induced (induced-isomorphism)
canonical matches by dividing raw isomorphism counts by |Aut(pattern)|.
The parity tests fuzz the engines against these.

:func:`brute_force_fsm` is the completeness oracle for FSM: it shares no
code with the miner (structure generation, isomorphism dedupe and match
enumeration all come from networkx; nothing from ``repro.core``,
``repro.mining`` or ``repro.pattern.canonical``).
"""

from __future__ import annotations

from ..graph.graph import DataGraph
from ..pattern.canonical import automorphism_count
from ..pattern.pattern import Pattern

__all__ = [
    "pattern_to_nx",
    "nx_count_edge_induced",
    "nx_count_vertex_induced",
    "nx_labeled_isomorphic",
    "brute_force_fsm",
]


def pattern_to_nx(p: Pattern):
    """Regular-edge view of a pattern as a networkx graph."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(p.num_vertices))
    g.add_edges_from(p.edges())
    nx.set_node_attributes(g, {u: p.label_of(u) for u in g}, "label")
    return g


def nx_count_edge_induced(graph: DataGraph, p: Pattern) -> int:
    """Oracle: canonical edge-induced match count via monomorphisms."""
    import networkx as nx

    gm = nx.algorithms.isomorphism.GraphMatcher(
        graph.to_networkx(), pattern_to_nx(p)
    )
    raw = sum(1 for _ in gm.subgraph_monomorphisms_iter())
    return raw // automorphism_count(p)


def nx_count_vertex_induced(graph: DataGraph, p: Pattern) -> int:
    """Oracle: canonical vertex-induced match count via induced isos."""
    import networkx as nx

    gm = nx.algorithms.isomorphism.GraphMatcher(
        graph.to_networkx(), pattern_to_nx(p)
    )
    raw = sum(1 for _ in gm.subgraph_isomorphisms_iter())
    return raw // automorphism_count(p)


def _same_label(a: dict, b: dict) -> bool:
    return a.get("label") == b.get("label")


def nx_labeled_isomorphic(p: Pattern, q: Pattern) -> bool:
    """Whether two anti-edge-free patterns are isomorphic, labels included."""
    import networkx as nx

    return nx.is_isomorphic(
        pattern_to_nx(p), pattern_to_nx(q), node_match=_same_label
    )


def brute_force_fsm(
    graph: DataGraph, num_edges: int, threshold: int
) -> dict[int, dict[Pattern, int]]:
    """Oracle FSM: ``{size: {labeled pattern: MNI support}}``, no pruning.

    Every connected structure of networkx's graph atlas with ``size <=
    num_edges`` edges is labeled in every way over the graph's label
    alphabet (an unlabeled graph's alphabet is the wildcard alone),
    labelings are deduplicated up to isomorphism, and each survivor's MNI
    support is read off *all* of its monomorphisms into the graph; the
    ones reaching ``threshold`` are reported under their edge count.
    """
    import networkx as nx
    from itertools import product

    if num_edges > 6:
        raise ValueError("the graph atlas stops at 7 vertices (6-edge trees)")
    data = graph.to_networkx()
    raw = graph.labels()
    alphabet = [None] if raw is None else sorted({int(lab) for lab in raw})
    out: dict[int, dict[Pattern, int]] = {size: {} for size in range(1, num_edges + 1)}
    for s in nx.graph_atlas_g():
        if not 1 <= s.number_of_edges() <= num_edges or not nx.is_connected(s):
            continue
        # Candidates for "already seen" share the multiset of labels.
        seen: dict[tuple, list[Pattern]] = {}
        for labels in product(alphabet, repeat=len(s)):
            p = Pattern(num_vertices=len(s), edges=s.edges())
            for u, lab in enumerate(labels):
                if lab is not None:
                    p.set_label(u, lab)
            bucket = seen.setdefault(tuple(sorted(p.labels().values())), [])
            if any(nx_labeled_isomorphic(p, q) for q in bucket):
                continue
            bucket.append(p)
            domains = [set() for _ in range(len(s))]
            matcher = nx.algorithms.isomorphism.GraphMatcher(
                data, pattern_to_nx(p), node_match=_same_label
            )
            for mapping in matcher.subgraph_monomorphisms_iter():
                for v, u in mapping.items():
                    domains[u].add(v)
            support = min(len(d) for d in domains)
            if support >= threshold:
                out[s.number_of_edges()][p] = support
    return out
