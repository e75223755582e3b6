"""Tests for the binary (.npz) graph format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    from_edges,
    load_npz,
    mico_like,
    patents_like,
    save_npz,
)
from repro.graph.binary_io import FORMAT_VERSION


class TestRoundtrip:
    def test_unlabeled(self, tmp_path):
        g = patents_like(0.05)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        h = load_npz(path)
        assert h.num_vertices == g.num_vertices
        assert h.num_edges == g.num_edges
        for v in g.vertices():
            assert h.neighbors(v).tolist() == g.neighbors(v).tolist()
        assert h == g
        assert h.labels() is None

    def test_labeled(self, tmp_path):
        g = mico_like(0.05)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        h = load_npz(path)
        assert list(h.labels()) == list(g.labels())
        assert h == g

    def test_isolated_vertices_preserved(self, tmp_path):
        g = from_edges([(0, 1)], num_vertices=5)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        h = load_npz(path)
        assert h.num_vertices == 5
        assert h.degree(4) == 0

    def test_empty_graph(self, tmp_path):
        g = from_edges([], num_vertices=0)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        h = load_npz(path)
        assert h.num_vertices == 0 and h.num_edges == 0

    def test_name_from_filename(self, tmp_path):
        g = from_edges([(0, 1)])
        path = tmp_path / "citations.npz"
        save_npz(g, path)
        assert load_npz(path).name == "citations"
        assert load_npz(path, name="override").name == "override"

    def test_mining_results_survive_roundtrip(self, tmp_path):
        from repro.core import count
        from repro.pattern import generate_clique

        g = mico_like(0.05)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        h = load_npz(path)
        p = generate_clique(3)
        assert count(h, p) == count(g, p)


class TestFormatValidation:
    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            version=np.array([FORMAT_VERSION + 1], dtype=np.int64),
            offsets=np.array([0], dtype=np.int64),
            neighbors=np.array([], dtype=np.int64),
        )
        with pytest.raises(GraphFormatError):
            load_npz(path)

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez_compressed(path, whatever=np.array([1]))
        with pytest.raises(GraphFormatError):
            load_npz(path)

    def test_compressed_smaller_than_text(self, tmp_path):
        from repro.graph import save_edge_list

        g = patents_like(0.3)
        npz_path = tmp_path / "g.npz"
        txt_path = tmp_path / "g.edges"
        save_npz(g, npz_path)
        save_edge_list(g, txt_path)
        assert npz_path.stat().st_size < txt_path.stat().st_size
