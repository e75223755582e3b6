"""Tests for clique workloads."""

import networkx as nx
import pytest

from repro.graph import complete_graph, erdos_renyi, from_edges
from repro.mining import (
    clique_count,
    clique_exists,
    list_cliques,
    maximal_clique_count,
    maximal_clique_pattern,
)


def nx_k_cliques(graph, k: int) -> int:
    G = graph.to_networkx()
    from itertools import combinations

    total = 0
    for nodes in combinations(G.nodes, k):
        if all(G.has_edge(u, v) for u, v in combinations(nodes, 2)):
            total += 1
    return total


class TestCliqueCount:
    def test_vs_oracle(self, denser_graph):
        for k in (3, 4, 5):
            assert clique_count(denser_graph, k) == nx_k_cliques(denser_graph, k)

    def test_complete_graph_binomial(self):
        import math

        g = complete_graph(7)
        for k in (3, 4, 5):
            assert clique_count(g, k) == math.comb(7, k)

    def test_prgu_corrected(self, denser_graph):
        assert clique_count(denser_graph, 3, symmetry_breaking=False) == (
            clique_count(denser_graph, 3)
        )

    def test_triangle_free_graph(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])  # C4
        assert clique_count(g, 3) == 0


class TestCliqueExistence:
    def test_exists(self, denser_graph):
        assert clique_exists(denser_graph, 3) == (
            clique_count(denser_graph, 3) > 0
        )

    def test_not_exists_large(self):
        g = erdos_renyi(20, 0.15, seed=1)
        assert not clique_exists(g, 8)


class TestListCliques:
    def test_all_distinct_and_valid(self, denser_graph):
        cliques = list_cliques(denser_graph, 3)
        assert len(cliques) == clique_count(denser_graph, 3)
        assert len(set(cliques)) == len(cliques)
        for a, b, c in cliques:
            assert denser_graph.has_edge(a, b)
            assert denser_graph.has_edge(b, c)
            assert denser_graph.has_edge(a, c)

    def test_limit_stops_early(self, denser_graph):
        capped = list_cliques(denser_graph, 3, limit=2)
        assert len(capped) <= 3  # the stopping match batch may add a couple

    def test_limit_zero_lists_nothing(self):
        assert list_cliques(complete_graph(6), 3, limit=0) == []

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            list_cliques(complete_graph(6), 3, limit=-1)


class TestMaximalCliques:
    def test_pattern_shape(self):
        p = maximal_clique_pattern(4)
        assert p.num_vertices == 5
        assert p.anti_vertices() == [4]
        assert len(p.anti_neighbors(4)) == 4

    def test_vs_networkx_maximal(self, denser_graph):
        # Count triangles that are maximal cliques via networkx.
        G = denser_graph.to_networkx()
        expected = sum(
            1 for clique in nx.find_cliques(G) if len(clique) == 3
        )
        assert maximal_clique_count(denser_graph, 3) == expected

    def test_k6_has_no_maximal_triangles(self):
        assert maximal_clique_count(complete_graph(6), 3) == 0
