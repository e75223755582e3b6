"""Unit tests for the DataGraph substrate."""

import pytest

from repro.errors import GraphError
from repro.graph import DataGraph, from_edges


def square() -> DataGraph:
    return from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])


class TestConstruction:
    def test_basic_counts(self):
        g = square()
        assert g.num_vertices == 4
        assert g.num_edges == 4

    def test_neighbors_sorted(self):
        g = from_edges([(2, 0), (0, 1), (0, 3)])
        assert g.neighbors(0).tolist() == [1, 2, 3]

    def test_isolated_vertices_via_num_vertices(self):
        g = from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_duplicate_edges_collapsed(self):
        g = from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loops_dropped_by_builder(self):
        g = from_edges([(0, 0), (0, 1)])
        assert g.num_edges == 1

    def test_validation_rejects_unsorted(self):
        with pytest.raises(GraphError):
            DataGraph([[1, 0], []], validate=True)

    def test_validation_rejects_asymmetric(self):
        with pytest.raises(GraphError):
            DataGraph([[1], []], validate=True)

    def test_validation_rejects_self_loop(self):
        with pytest.raises(GraphError):
            DataGraph([[0]], validate=True)

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            DataGraph([[5]], validate=True)

    def test_label_length_mismatch(self):
        with pytest.raises(GraphError):
            DataGraph([[1], [0]], labels=[1], validate=False)


class TestAccessors:
    def test_has_edge(self):
        g = square()
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(0, 0)

    def test_edges_iteration_no_duplicates(self):
        g = square()
        edges = list(g.edges())
        assert len(edges) == 4
        assert all(u < v for u, v in edges)

    def test_degrees(self):
        g = from_edges([(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.max_degree() == 3
        assert g.avg_degree() == pytest.approx(1.5)

    def test_empty_graph(self):
        g = DataGraph([])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0
        assert g.avg_degree() == 0.0

    def test_labels(self):
        g = from_edges([(0, 1)], labels=[5, 7])
        assert g.is_labeled
        assert g.label(0) == 5
        assert g.num_labels() == 2
        assert g.label_histogram() == {5: 1, 7: 1}

    def test_unlabeled(self):
        g = square()
        assert not g.is_labeled
        assert g.label(0) is None
        assert g.num_labels() == 0


class TestRangeQueries:
    def test_neighbors_above(self):
        g = from_edges([(2, 0), (2, 1), (2, 3), (2, 4)])
        assert g.neighbors_above(2, 1).tolist() == [3, 4]
        assert g.neighbors_above(2, 4).tolist() == []

    def test_neighbors_below(self):
        g = from_edges([(2, 0), (2, 1), (2, 3), (2, 4)])
        assert g.neighbors_below(2, 3).tolist() == [0, 1]
        assert g.neighbors_below(2, 0).tolist() == []

    def test_neighbors_between_exclusive(self):
        g = from_edges([(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])
        assert g.neighbors_between(5, 0, 4).tolist() == [1, 2, 3]
        assert g.neighbors_between(5, -1, 5).tolist() == [0, 1, 2, 3, 4]


class TestDegreeOrdering:
    def test_order_is_by_degree(self):
        g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        ordered, old_of_new = g.degree_ordered()
        assert ordered.is_degree_ordered()
        degrees = [ordered.degree(v) for v in ordered.vertices()]
        assert degrees == sorted(degrees)

    def test_mapping_round_trip(self):
        g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        ordered, old_of_new = g.degree_ordered()
        # Edge sets must agree modulo renaming.
        renamed_back = {
            tuple(sorted((old_of_new[u], old_of_new[v])))
            for u, v in ordered.edges()
        }
        assert renamed_back == set(g.edges())

    def test_labels_travel_with_vertices(self):
        g = from_edges([(0, 1), (0, 2)], labels=[9, 5, 7])
        ordered, old_of_new = g.degree_ordered()
        for new_id, old_id in enumerate(old_of_new):
            assert ordered.label(new_id) == g.label(old_id)

    def test_cached(self):
        g = from_edges([(0, 1), (1, 2)])
        a = g.degree_ordered()
        b = g.degree_ordered()
        assert a[0] is b[0]


class TestLabelIndex:
    def test_vertices_with_label(self):
        g = from_edges([(0, 1), (1, 2)], labels=[1, 2, 1])
        assert g.vertices_with_label(1) == [0, 2]
        assert g.vertices_with_label(2) == [1]
        assert g.vertices_with_label(9) == []

    def test_unlabeled_graph_returns_empty(self):
        g = square()
        assert g.vertices_with_label(0) == []


class TestMisc:
    def test_subgraph_edges(self):
        g = square()
        assert g.subgraph_edges([0, 1, 2]) == [(0, 1), (1, 2)]

    def test_to_networkx(self):
        g = from_edges([(0, 1), (1, 2)], labels=[1, 2, 3])
        G = g.to_networkx()
        assert G.number_of_nodes() == 3
        assert G.nodes[1]["label"] == 2

    def test_equality(self):
        assert square() == square()
        assert square() != from_edges([(0, 1)])

    def test_memory_bytes_positive(self):
        assert square().memory_bytes() > 0
