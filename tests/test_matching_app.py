"""Tests for the pattern-matching application wrappers."""

import pytest

from repro.core import count
from repro.mining import (
    count_pattern,
    count_unique_subgraphs,
    enumerate_matches,
    match_and_write,
)
from repro.pattern import generate_clique, generate_star, pattern_p1


class TestWrappers:
    def test_count_pattern_delegates(self, random_graph):
        p = pattern_p1()
        assert count_pattern(random_graph, p) == count(random_graph, p)

    def test_enumerate_matches_complete(self, random_graph):
        p = generate_clique(3)
        matches = enumerate_matches(random_graph, p)
        assert len(matches) == count(random_graph, p)
        assert len({m.mapping for m in matches}) == len(matches)

    def test_enumerate_limit(self, denser_graph):
        p = generate_clique(3)
        capped = enumerate_matches(denser_graph, p, limit=3)
        assert 3 <= len(capped) <= 6  # stop is cooperative, slight overshoot ok

    def test_enumerate_limit_zero_walks_nothing(self, denser_graph, monkeypatch):
        from repro.core.session import MiningSession

        monkeypatch.setattr(
            MiningSession, "_execute",
            lambda *a, **k: pytest.fail("limit=0 ran a walk"),
        )
        assert enumerate_matches(denser_graph, generate_clique(3), limit=0) == []

    def test_enumerate_negative_limit_rejected(self, denser_graph):
        with pytest.raises(ValueError, match="limit"):
            enumerate_matches(denser_graph, generate_clique(3), limit=-1)

    def test_match_and_write_streams_all(self, random_graph):
        out = []
        n = match_and_write(random_graph, generate_star(3), out.append)
        assert n == len(out) == count(random_graph, generate_star(3))

    def test_unique_subgraphs_at_most_matches(self, random_graph):
        p = generate_star(3)
        unique = count_unique_subgraphs(random_graph, p)
        total = count(random_graph, p)
        assert unique <= total
        assert unique > 0 or total == 0

    def test_unique_subgraphs_cliques_equal_matches(self, denser_graph):
        # For cliques, canonical matches are already one per vertex set.
        p = generate_clique(3)
        assert count_unique_subgraphs(denser_graph, p) == count(denser_graph, p)
