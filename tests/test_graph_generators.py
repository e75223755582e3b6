"""Tests for synthetic graph generators and dataset stand-ins."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    barabasi_albert,
    chain_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    friendster_like,
    grid_graph,
    mico_like,
    orkut_like,
    patents_like,
    power_law,
    random_regular,
    star_graph,
    with_random_labels,
)


class TestPowerLaw:
    def test_deterministic(self):
        a = power_law(200, gamma=2.2, seed=4)
        b = power_law(200, gamma=2.2, seed=4)
        assert a == b

    def test_simple_graph_invariants(self):
        g = power_law(300, gamma=2.0, seed=1)
        for v in g.vertices():
            nbrs = g.neighbors(v)
            assert v not in nbrs  # no self-loops
            assert len(nbrs) == len(set(nbrs))  # no multi-edges

    def test_gamma_controls_skew(self):
        heavy = power_law(2000, gamma=2.0, seed=3)
        tame = power_law(2000, gamma=3.5, seed=3)
        assert heavy.max_degree() > 4 * tame.max_degree()

    def test_degree_bounds_respected(self):
        g = power_law(500, gamma=2.0, d_min=3, d_max=40, seed=2)
        # Stub-conflict dropping may undershoot d_min, but the cap (+1
        # for the possible parity fix-up) is hard.
        assert g.max_degree() <= 41

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            power_law(1)
        with pytest.raises(GraphError):
            power_law(100, gamma=1.0)
        with pytest.raises(GraphError):
            power_law(100, d_min=0)
        with pytest.raises(GraphError):
            power_law(100, d_min=10, d_max=5)


class TestBasicGenerators:
    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10
        assert g.max_degree() == 4

    def test_star(self):
        g = star_graph(6)
        assert g.num_edges == 5
        assert g.degree(0) == 5

    def test_chain(self):
        g = chain_graph(5)
        assert g.num_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical


class TestRandomGenerators:
    def test_erdos_renyi_deterministic(self):
        assert erdos_renyi(30, 0.2, seed=5) == erdos_renyi(30, 0.2, seed=5)

    def test_erdos_renyi_seeds_differ(self):
        assert erdos_renyi(30, 0.2, seed=5) != erdos_renyi(30, 0.2, seed=6)

    def test_erdos_renyi_probability_bounds(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, 1.5)
        assert erdos_renyi(10, 0.0).num_edges == 0
        assert erdos_renyi(10, 1.0).num_edges == 45

    def test_barabasi_albert_edge_count(self):
        n, m = 100, 3
        g = barabasi_albert(n, m, seed=1)
        # seed clique C(m+1,2) + m per subsequent vertex
        assert g.num_edges == (m + 1) * m // 2 + m * (n - m - 1)

    def test_barabasi_albert_bad_params(self):
        with pytest.raises(GraphError):
            barabasi_albert(3, 3)

    def test_barabasi_albert_heavy_tail(self):
        g = barabasi_albert(300, 2, seed=2)
        assert g.max_degree() > 4 * g.avg_degree()

    def test_random_regular(self):
        g = random_regular(20, 4, seed=3)
        assert all(g.degree(v) <= 4 for v in g.vertices())
        assert sum(g.degree(v) for v in g.vertices()) >= 0.9 * 20 * 4

    def test_random_regular_odd_total_rejected(self):
        with pytest.raises(GraphError):
            random_regular(5, 3)


class TestLabeling:
    def test_with_random_labels_range(self):
        g = with_random_labels(erdos_renyi(50, 0.1, seed=1), 6, seed=2)
        assert g.is_labeled
        assert all(0 <= g.label(v) < 6 for v in g.vertices())

    def test_with_random_labels_needs_positive(self):
        with pytest.raises(GraphError):
            with_random_labels(erdos_renyi(5, 0.5), 0)

    def test_labeling_preserves_structure(self):
        base = erdos_renyi(30, 0.2, seed=4)
        labeled = with_random_labels(base, 3, seed=0)
        assert set(labeled.edges()) == set(base.edges())


class TestDatasetStandIns:
    def test_mico_like_labels(self):
        g = mico_like(0.2)
        assert g.is_labeled
        assert g.num_labels() <= 29

    def test_patents_like_unlabeled_by_default(self):
        assert not patents_like(0.2).is_labeled

    def test_patents_like_labeled_variant(self):
        g = patents_like(0.2, labeled=True)
        assert g.is_labeled
        assert g.num_labels() <= 37

    def test_relative_density(self):
        # Orkut-like must be denser than friendster-like (per Table 2).
        assert orkut_like(0.2).avg_degree() > friendster_like(0.2).avg_degree()

    def test_scale_parameter(self):
        small = mico_like(0.1)
        large = mico_like(0.5)
        assert large.num_vertices > small.num_vertices

    def test_determinism(self):
        assert orkut_like(0.1) == orkut_like(0.1)
