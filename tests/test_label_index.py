"""Tests for label-indexed task seeding (the G-Miner-style pruning)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineStats, MiningSession, count, match
from repro.errors import MatchingError
from repro.graph import erdos_renyi, with_random_labels
from repro.pattern import Pattern, generate_chain, generate_clique


@pytest.fixture(scope="module")
def labeled():
    return with_random_labels(erdos_renyi(120, 0.12, seed=3), 5, seed=4)


def fully_labeled_chain(labels: tuple[int, ...]) -> Pattern:
    p = generate_chain(len(labels))
    for u, lab in enumerate(labels):
        p.set_label(u, lab)
    return p


class TestFrontier:
    """The one frontier function: ``MiningSession._frontier_key`` names a
    plan's pinned-label set, ``_frontier`` is the cached hub-first array."""

    def test_unlabeled_graph_no_restriction(self):
        session = MiningSession(erdos_renyi(30, 0.2, seed=1))
        key = session._frontier_key(session.plan_for(generate_clique(3)))
        assert key is None
        assert session._frontier(key).tolist() == list(range(29, -1, -1))

    def test_wildcard_top_no_restriction(self, labeled):
        session = MiningSession(labeled)
        plan = session.plan_for(generate_chain(3))  # unlabeled pattern
        assert session._frontier_key(plan) is None

    def test_labeled_pattern_restricts_and_orders_hub_first(self, labeled):
        session = MiningSession(labeled)
        plan = session.plan_for(fully_labeled_chain((0, 1, 2)))
        key = session._frontier_key(plan)
        assert key == frozenset(plan.pinned_start_labels())
        starts = session._frontier(key).tolist()
        labels = session.ordered.labels()
        assert starts == sorted(
            (v for v in range(len(labels)) if labels[v] in key), reverse=True
        )
        assert 0 < len(starts) < session.ordered.num_vertices
        # label_index off seeds from every vertex; the array is cached
        assert session._frontier_key(plan, label_index=False) is None
        assert session._frontier(key) is session._frontier(key)
        assert session.cache_info()["start_lists"] == 1

    def test_labeled_pattern_on_unlabeled_graph_is_rejected_here(self):
        session = MiningSession(erdos_renyi(30, 0.2, seed=1))
        plan = session.plan_for(fully_labeled_chain((0, 1, 2)))
        with pytest.raises(MatchingError, match="unlabeled"):
            session._frontier_key(plan)


class TestCountsUnchanged:
    @pytest.mark.parametrize(
        "labels", [(0, 1, 2), (1, 1, 1), (4, 0, 4), (2, 3)]
    )
    def test_fully_labeled(self, labeled, labels):
        p = fully_labeled_chain(labels)
        assert match(labeled, p) == match(labeled, p, label_index=False)

    def test_partially_labeled(self, labeled):
        p = generate_chain(3)
        p.set_label(1, 1)
        assert match(labeled, p) == match(labeled, p, label_index=False)

    def test_labeled_clique(self, labeled):
        p = generate_clique(3)
        for u in range(3):
            p.set_label(u, 0)
        assert match(labeled, p) == match(labeled, p, label_index=False)

    def test_callback_sees_same_matches(self, labeled):
        p = fully_labeled_chain((0, 1, 0))
        with_index: set = set()
        without: set = set()
        match(labeled, p, callback=lambda m: with_index.add(m.mapping))
        match(
            labeled,
            p,
            callback=lambda m: without.add(m.mapping),
            label_index=False,
        )
        assert with_index == without

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_random_labelings(self, seed):
        import random

        rng = random.Random(seed)
        g = with_random_labels(erdos_renyi(40, 0.2, seed=seed), 3, seed=seed)
        p = fully_labeled_chain(tuple(rng.randrange(3) for _ in range(3)))
        assert match(g, p) == match(g, p, label_index=False)


class TestPruning:
    def test_fewer_tasks_with_index(self, labeled):
        p = fully_labeled_chain((0, 1, 2))
        s_on, s_off = EngineStats(), EngineStats()
        match(labeled, p, stats=s_on)
        match(labeled, p, stats=s_off, label_index=False)
        assert s_on.tasks < s_off.tasks

    def test_absent_label_means_zero_tasks(self, labeled):
        p = fully_labeled_chain((99, 99, 99))  # label not in the graph
        stats = EngineStats()
        assert match(labeled, p, stats=stats) == 0
        assert stats.tasks == 0
