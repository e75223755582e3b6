"""Storage-tier tests: the one CSR storage and its ``.rgx`` mmap store.

Every construction route (rows, edge list, ``.npz``, ``.rgx``) must
yield the same arrays, and the out-of-core tier must be invisible in
results (an mmap-opened graph pins its in-memory twin across every
engine) and visible in cost (a cold open does O(header) work, never a
full adjacency materialization).  This suite pins the storage contract,
fuzz-pins the round trip over the graph feature matrix, rejects
malformed files loudly, guards the lazy-open property, checks
in-memory-vs-mmap engine parity, and unit-tests the graph's cached
derived arrays and the hub-membership bit rows it packs for power-law
hubs.
"""

from __future__ import annotations

import os
import struct
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core import MiningSession, as_session, count, generate_plan  # noqa: E402
from repro.core.accel import FrontierBatchedEngine  # noqa: E402
from repro.graph import graph as graph_module  # noqa: E402
from repro.graph.graph import (  # noqa: E402
    HUB_MIN_DEGREE,
    HubMembershipIndex,
    hub_degree_threshold,
)
from repro.errors import GraphError, GraphFormatError  # noqa: E402
from repro.graph import (  # noqa: E402
    DataGraph,
    GraphStore,
    barabasi_albert,
    erdos_renyi,
    from_edges,
    load_mmap,
    load_npz,
    open_graph,
    power_law,
    save_edge_list,
    save_mmap,
    save_npz,
    with_random_labels,
)
from repro.graph.binary_io import MMAP_MAGIC, MMAP_VERSION  # noqa: E402
from repro.pattern import Pattern, generate_clique, generate_star  # noqa: E402

seeds = st.integers(min_value=0, max_value=40)
ENGINES = ("reference", "accel-batch")


def _fuzz_graph(seed: int):
    """Graphs sweeping the storage feature matrix (labels, isolation, …)."""
    kind = seed % 5
    if kind == 0:
        return erdos_renyi(30 + seed, 0.15, seed=seed)
    if kind == 1:
        return with_random_labels(
            erdos_renyi(25 + seed, 0.2, seed=seed), 3, seed=seed
        )
    if kind == 2:  # isolated vertices at both ends of the id range
        return from_edges([(1, 2), (2, 3)], num_vertices=8 + seed % 4)
    if kind == 3:
        return power_law(40 + seed, gamma=2.0, seed=seed)
    return from_edges([], num_vertices=seed % 3)  # empty / edgeless


def _rgx_path(tmp: str) -> str:
    return os.path.join(tmp, "g.rgx")


class TestRgxRoundtrip:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_equals_source(self, seed):
        g = _fuzz_graph(seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(g, path)
            h = load_mmap(path)
            assert h == g
            assert h.num_vertices == g.num_vertices
            assert h.num_edges == g.num_edges
            for v in g.vertices():
                assert list(h.neighbors(v)) == list(g.neighbors(v))
                assert h.degree(v) == g.degree(v)
            if g.labels() is None:
                assert h.labels() is None
            else:
                assert list(h.labels()) == list(g.labels())

    def test_name_defaults_to_basename(self):
        g = from_edges([(0, 1)])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "citations.rgx")
            save_mmap(g, path)
            assert load_mmap(path).name == "citations"
            assert load_mmap(path, name="override").name == "override"

    def test_degree_sorted_flag_round_trips(self):
        g = erdos_renyi(40, 0.2, seed=3)
        ordered, _ = g.degree_ordered()
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(ordered, path)
            store = GraphStore(path)
            assert store.degree_sorted
            h = store.graph()
            assert h.is_degree_ordered()
            # degree_ordered on an already-sorted store is the identity.
            again, translation = h.degree_ordered()
            assert again is h
            assert list(translation) == list(range(h.num_vertices))

    def test_store_info_matches_header(self):
        g = with_random_labels(erdos_renyi(30, 0.2, seed=5), 2, seed=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(g, path)
            info = GraphStore(path).info()
            assert info["num_vertices"] == g.num_vertices
            assert info["num_edges"] == g.num_edges
            assert info["has_labels"] is True
            assert info["version"] == MMAP_VERSION
            assert info["file_size"] == os.path.getsize(path)

    def test_open_graph_routes_by_extension(self):
        g = erdos_renyi(25, 0.2, seed=9)
        with tempfile.TemporaryDirectory() as tmp:
            rgx = os.path.join(tmp, "g.rgx")
            npz = os.path.join(tmp, "g.npz")
            txt = os.path.join(tmp, "g.edges")
            save_mmap(g, rgx)
            save_npz(g, npz)
            save_edge_list(g, txt)
            assert open_graph(rgx) == g
            assert open_graph(npz) == g
            assert open_graph(txt) == g


vertex_ids = st.integers(min_value=0, max_value=14)
edge_lists = st.lists(st.tuples(vertex_ids, vertex_ids), max_size=50)

# One malformed adjacency per defect class the validator rejects.
DEFECTS = {
    "out-of-range id": [[1, 7], [0]],
    "self-loop": [[0, 1], [0]],
    "unsorted row": [[2, 1], [0], [0]],
    "duplicate in row": [[1, 1], [0]],
    "missing reverse edge": [[1], []],
}


def _rows_csr(rows):
    offsets = np.cumsum([0] + [len(r) for r in rows])
    return offsets, np.array([v for r in rows for v in r], dtype=np.int64)


class TestOneStorage:
    """Every route into a ``DataGraph`` lands on the same CSR arrays."""

    @given(edge_lists, st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_construction_routes_agree(self, edges, labeled):
        g = from_edges(edges)
        if labeled:
            g = with_random_labels(g, 3, seed=len(edges))
        labels = g.labels().tolist() if labeled else None
        rows = [g.neighbors(v).tolist() for v in g.vertices()]
        with tempfile.TemporaryDirectory() as tmp:
            npz, rgx = os.path.join(tmp, "g.npz"), _rgx_path(tmp)
            save_npz(g, npz)
            save_mmap(g, rgx)
            for h in (DataGraph(rows, labels), load_npz(npz), load_mmap(rgx)):
                assert h == g
                for mine, theirs in zip(h.csr_arrays(), g.csr_arrays()):
                    if theirs is None:
                        assert mine is None
                        continue
                    assert mine.dtype == np.int64
                    assert not mine.flags.writeable
                    assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("rows", DEFECTS.values(), ids=DEFECTS.keys())
    def test_both_constructors_reject_each_defect(self, rows):
        with pytest.raises(GraphError):
            DataGraph(rows, validate=True)
        with pytest.raises(GraphError):
            DataGraph.from_csr(*_rows_csr(rows), validate=True)

    @given(edge_lists)
    @settings(max_examples=25, deadline=None)
    def test_degree_order_breaks_ties_by_original_id(self, edges):
        g = from_edges(edges)
        ordered, old_of_new = g.degree_ordered()
        keys = [(g.degree(v), v) for v in old_of_new.tolist()]
        assert keys == sorted(keys)
        assert [ordered.degree(v) for v in ordered.vertices()] == [
            d for d, _ in keys
        ]

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_engines_emit_the_same_plain_int_matches_on_mmap(self, seed):
        g = _fuzz_graph(seed)
        p = generate_clique(3) if seed % 2 else generate_star(3)
        with tempfile.TemporaryDirectory() as tmp:
            save_mmap(g, _rgx_path(tmp))
            session = MiningSession(load_mmap(_rgx_path(tmp)))
            emitted = {}
            for engine in ENGINES:
                seen = []
                total = session.match(
                    p, lambda m: seen.append(m.mapping), engine=engine
                )
                assert total == len(seen)
                assert all(type(v) is int for row in seen for v in row)
                emitted[engine] = seen
            assert emitted["reference"] == emitted["accel-batch"]


class TestRgxValidation:
    def _valid_bytes(self) -> bytes:
        g = erdos_renyi(20, 0.3, seed=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(g, path)
            with open(path, "rb") as fh:
                return fh.read()

    def _expect_rejection(self, payload: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            with open(path, "wb") as fh:
                fh.write(payload)
            with pytest.raises(GraphFormatError):
                GraphStore(path)

    def test_rejects_bad_magic(self):
        blob = bytearray(self._valid_bytes())
        blob[:8] = b"NOTAGRPH"
        self._expect_rejection(bytes(blob))

    def test_rejects_wrong_version(self):
        blob = bytearray(self._valid_bytes())
        struct.pack_into("<q", blob, 8, MMAP_VERSION + 1)
        self._expect_rejection(bytes(blob))

    def test_rejects_negative_counts(self):
        blob = bytearray(self._valid_bytes())
        struct.pack_into("<q", blob, 16, -5)
        self._expect_rejection(bytes(blob))

    def test_rejects_truncated_sections(self):
        blob = self._valid_bytes()
        self._expect_rejection(blob[: len(blob) - 16])

    def test_rejects_short_header(self):
        self._expect_rejection(MMAP_MAGIC + b"\0" * 8)

    def test_rejects_offsets_span_mismatch(self):
        blob = bytearray(self._valid_bytes())
        # Corrupt the final offset (last int64 of the offsets section).
        g_n = struct.unpack_from("<q", blob, 16)[0]
        struct.pack_into("<q", blob, 64 + g_n * 8, 1)
        self._expect_rejection(bytes(blob))

    def test_rejects_missing_file(self):
        with pytest.raises(GraphFormatError):
            GraphStore("/nonexistent/definitely-not-here.rgx")


class TestColdStartIsLazy:
    def test_load_does_no_adjacency_materialization(self):
        """Opening a store is O(header): the acceptance-criteria guard.

        The loaded graph must keep ``memmap`` sections (no copy into
        heap arrays) and the Python-side allocations of the open itself
        must stay far below the neighbor payload size.
        """
        import tracemalloc

        g = power_law(3000, gamma=2.0, seed=11)
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(g, path)
            payload = 2 * g.num_edges * 8  # neighbor section bytes
            assert payload > 200_000  # the guard must have teeth
            tracemalloc.start()
            h = load_mmap(path)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak < payload // 4
            # ... and the pages really are the file's mapped sections,
            # not copies (asarray re-wraps the memmap as a plain view).
            assert h.backing_store is not None
            assert h.backing_store.path == path
            assert isinstance(h.backing_store.neighbors, np.memmap)
            assert np.shares_memory(h._flat, h.backing_store.neighbors)
            assert np.shares_memory(h._offsets, h.backing_store.offsets)
            del h

    def test_engine_aliases_mapped_sections(self):
        """The engine must read the mapped arrays, not copies of them."""
        g = erdos_renyi(60, 0.2, seed=7)
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(g, path)
            h = load_mmap(path)
            engine = FrontierBatchedEngine(h, generate_plan(generate_clique(3)))
            assert np.shares_memory(engine.flat, h.backing_store.neighbors)
            assert np.shares_memory(engine.offsets, h.backing_store.offsets)

    @pytest.mark.parametrize("member", ["degrees", "adjacency_keys", "hub_index"])
    def test_derived_members_cached_and_read_only(self, monkeypatch, member):
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 4)
        g = power_law(300, gamma=1.6, seed=9)
        first = getattr(g, member)()
        assert first is not None
        assert getattr(g, member)() is first
        arrays = (first.hubs, first.row_of, first.bits) if member == "hub_index" else (first,)
        for arr in arrays:
            assert not arr.flags.writeable
        if member == "degrees":
            assert first.tolist() == [g.degree(v) for v in g.vertices()]

    def test_close_releases_keys_and_hubs_of_a_degree_sorted_store(
        self, monkeypatch
    ):
        """A degree-sorted store's graph is its own ordered graph, so
        dropping the ordering cache alone would keep its derived arrays."""
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 4)
        ordered, _ = power_law(300, gamma=1.6, seed=9).degree_ordered()
        p = Pattern.from_edges([(0, 1), (1, 2)], anti_edges=[(0, 2)])
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(ordered, path)
            h = load_mmap(path)
            session = MiningSession(h)
            assert session.ordered is h
            assert session.count(p, engine="accel-batch") == count(
                ordered, p, engine="reference"
            )
            assert h._adj_keys is not None and h._hub_index
            session.close()
            assert h._adj_keys is None
            assert h._hub_index is None


class TestMmapEngineParity:
    @given(seeds)
    @settings(max_examples=12, deadline=None)
    def test_counts_pin_in_memory_twin(self, seed):
        g = _fuzz_graph(seed)
        kind = seed % 3
        if kind == 0:
            p, edge_induced = generate_clique(3), True
        elif kind == 1:
            p, edge_induced = generate_star(3), False
        else:
            p = Pattern.from_edges([(0, 1), (1, 2)], anti_edges=[(0, 2)])
            edge_induced = True
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(g, path)
            h = load_mmap(path)
            for engine in ENGINES:
                expected = count(g, p, edge_induced=edge_induced, engine=engine)
                got = count(h, p, edge_induced=edge_induced, engine=engine)
                assert got == expected, engine

    def test_labeled_counts_pin_in_memory_twin(self):
        g = with_random_labels(erdos_renyi(50, 0.18, seed=13), 3, seed=2)
        p = generate_clique(3)
        p.set_label(0, 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(g, path)
            h = load_mmap(path)
            for engine in ENGINES:
                assert count(h, p, engine=engine) == count(
                    g, p, engine=engine
                ), engine


class TestPathAcceptance:
    def test_session_accepts_path_store_and_graph(self):
        g = erdos_renyi(40, 0.2, seed=21)
        p = generate_clique(3)
        expected = count(g, p)
        with tempfile.TemporaryDirectory() as tmp:
            path = _rgx_path(tmp)
            save_mmap(g, path)
            assert MiningSession(path).count(p) == expected
            store = GraphStore(path)
            s1 = MiningSession.for_graph(store)
            s2 = as_session(store)
            assert s1 is s2  # shared session on the store's cached graph
            assert s1.count(p) == expected

    def test_as_session_rejects_junk(self):
        with pytest.raises(TypeError):
            as_session(42)

    def test_cli_convert_info_count_pipeline(self, tmp_path, capsys):
        from repro.cli.main import main

        g = erdos_renyi(30, 0.2, seed=17)
        edges = tmp_path / "g.edges"
        rgx = tmp_path / "g.rgx"
        save_edge_list(g, edges)
        assert main(
            ["graph", "convert", str(edges), str(rgx), "--degree-order"]
        ) == 0
        out = capsys.readouterr().out
        assert f"{g.num_vertices} vertices" in out
        assert main(["graph", "info", str(rgx)]) == 0
        out = capsys.readouterr().out
        assert "degree_sorted: True" in out
        assert main(
            ["count", "--graph", str(rgx), "--pattern", "clique:3"]
        ) == 0
        out = capsys.readouterr().out
        assert f"matches: {count(g, generate_clique(3))}" in out

    def test_cli_convert_rejects_labels_for_binary_input(self, tmp_path):
        from repro.cli.main import main

        g = erdos_renyi(10, 0.3, seed=1)
        rgx = tmp_path / "g.rgx"
        save_mmap(g, rgx)
        with pytest.raises(SystemExit):
            main(
                [
                    "graph", "convert", str(rgx), str(tmp_path / "h.rgx"),
                    "--labels", str(tmp_path / "labels.txt"),
                ]
            )


class TestHubRowsPackCsr:
    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.05, max_value=0.9),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @example(n=5, p=0.8, floor=2, seed=1)
    @example(n=13, p=0.5, floor=3, seed=2)
    @settings(max_examples=40, deadline=None)
    def test_each_packed_row_equals_its_csr_row(self, n, p, floor, seed):
        # n runs below 8 and off multiples of 8, so rows end mid-byte.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "HUB_MIN_DEGREE", floor)
            g = erdos_renyi(n, p, seed=seed)
            hub = g.hub_index()
        degrees = g.degrees()
        if not degrees.size or int(degrees.max()) < floor:
            assert hub is None
            return
        assert hub.hubs.tolist() == np.flatnonzero(degrees >= floor).tolist()
        assert hub.bits.shape == (hub.hubs.size, (n + 7) >> 3)
        for row, h in enumerate(hub.hubs.tolist()):
            assert hub.row_of[h] == row
            bits = np.unpackbits(hub.bits[row], bitorder="little")
            assert not bits[n:].any()  # padding past n stays clear
            assert np.flatnonzero(bits).tolist() == g.neighbors(h).tolist()
        assert hub.memory_bytes() == hub.bits.nbytes + hub.row_of.nbytes


class TestHubMembership:
    def test_threshold_scales_with_graph_size(self):
        assert hub_degree_threshold(100) == HUB_MIN_DEGREE
        assert hub_degree_threshold(1 << 20) == (1 << 20) >> 6

    def test_threshold_floor_hands_over_at_64_times_the_floor(self):
        edge = HUB_MIN_DEGREE << 6
        assert hub_degree_threshold(0) == HUB_MIN_DEGREE
        assert hub_degree_threshold(edge) == HUB_MIN_DEGREE
        assert hub_degree_threshold(edge + 64) == HUB_MIN_DEGREE + 1

    def test_threshold_constant_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 3)
        assert hub_degree_threshold(100) == 3

    def test_edgeless_and_empty_graphs_build_no_index(self, monkeypatch):
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 1)
        assert from_edges([], num_vertices=0).hub_index() is None
        assert from_edges([], num_vertices=5).hub_index() is None

    def test_star_center_row_pins_the_bit_order(self, monkeypatch):
        # Star: centre 0, leaves 1..10, so n = 11 spans two bytes and
        # bit v & 7 of byte v >> 3 is set for each leaf.
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 5)
        g = from_edges([(0, leaf) for leaf in range(1, 11)])
        hub = g.hub_index()
        assert hub.hubs.tolist() == [0]
        assert hub.row_of.tolist() == [0] + [-1] * 10
        assert hub.bits.tolist() == [[0b11111110, 0b00000111]]
        assert hub.memory_bytes() == 2 + 11 * 8

    def test_index_arrays_are_read_only(self, monkeypatch):
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 12)
        hub = barabasi_albert(300, 6, seed=5).hub_index()
        for arr in (hub.hubs, hub.row_of, hub.bits):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_row_map_inverts_hubs(self, monkeypatch):
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 12)
        g = barabasi_albert(300, 6, seed=5)
        hub = g.hub_index()
        assert hub.hubs.size > 0
        assert np.all(np.diff(hub.hubs) > 0)
        assert hub.row_of[hub.hubs].tolist() == list(range(hub.hubs.size))
        assert int((hub.row_of < 0).sum()) == g.num_vertices - hub.hubs.size

    def test_no_hubs_below_threshold(self):
        g = erdos_renyi(50, 0.1, seed=3)  # max degree far below 128
        assert g.hub_index() is None
        assert g._hub_index is False  # the miss is cached too
        assert g.hub_index() is None

    def test_index_structure_and_lookup(self, monkeypatch):
        # Force hubs before the fresh graph's first (cached) hub_index().
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 12)
        g = barabasi_albert(300, 6, seed=5)
        hub = g.hub_index()
        assert isinstance(hub, HubMembershipIndex)
        degrees = g.degrees()
        assert hub.hubs.tolist() == np.flatnonzero(degrees >= 12).tolist()
        for h in np.asarray(hub.hubs)[:10]:
            row = hub.row_of[h]
            assert row >= 0
            members = np.flatnonzero(
                np.unpackbits(hub.bits[row], bitorder="little")
            )
            assert members.tolist() == list(g.neighbors(int(h)))
        assert hub.memory_bytes() > 0

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_member_routes_agree_with_searchsorted(self, seed):
        # Force hub routing before the fresh graph's first hub_index()
        # (hypothesis reruns the body, so patch inside it, not via the
        # function-scoped monkeypatch fixture).
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "HUB_MIN_DEGREE", 4)
            g = power_law(120 + seed, gamma=1.7, seed=seed)
            engine = FrontierBatchedEngine(g, generate_plan(generate_clique(3)))
        hubs = g.hub_index()
        assert hubs is not None
        assert engine.hubs is hubs
        rng = np.random.default_rng(seed)
        n = g.num_vertices
        owners = rng.integers(0, n, 400)
        values = rng.integers(0, n, 400)
        got = engine._member(owners, values)
        want = engine._member_sorted(owners, values)
        assert np.array_equal(got, want)

    def test_engine_counts_unchanged_when_hubs_engage(self, monkeypatch):
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 4)
        g = power_law(300, gamma=1.6, seed=9)
        p = Pattern.from_edges([(0, 1), (1, 2)], anti_edges=[(0, 2)])
        expected = count(g, p, engine="reference")
        h, _ = g.degree_ordered()
        engine = FrontierBatchedEngine(h, generate_plan(generate_clique(3)))
        assert engine.hubs is not None  # hubs really engage
        assert engine.hubs is h.hub_index()
        got = count(g, p, engine="accel-batch")
        assert got == expected


class TestHubMemberRouting:
    """``member`` answers hub owners from bits and defers the rest."""

    @staticmethod
    def _index(monkeypatch):
        monkeypatch.setattr(graph_module, "HUB_MIN_DEGREE", 12)
        g = barabasi_albert(300, 6, seed=5)
        return g, g.hub_index()

    @staticmethod
    def _truth(g, owners, values):
        return np.array(
            [v in set(g.neighbors(int(o)).tolist()) for o, v in zip(owners, values)],
            dtype=bool,
        )

    def test_all_hub_owners_never_call_the_fallback(self, monkeypatch):
        g, hub = self._index(monkeypatch)

        def fallback(owners, values):
            raise AssertionError("hub owners must be answered from bits")

        rng = np.random.default_rng(0)
        owners = rng.choice(hub.hubs, 200)
        values = rng.integers(0, g.num_vertices, 200)
        got = hub.member(owners, values, fallback)
        assert got.dtype == bool
        assert np.array_equal(got, self._truth(g, owners, values))

    def test_no_hub_owners_defer_the_whole_query(self, monkeypatch):
        g, hub = self._index(monkeypatch)
        owners = np.flatnonzero(hub.row_of < 0)[:50]
        values = np.arange(50, dtype=np.int64)
        sentinel = np.zeros(50, dtype=bool)
        calls = []

        def fallback(o, v):
            calls.append((o, v))
            return sentinel

        assert hub.member(owners, values, fallback) is sentinel
        assert len(calls) == 1
        assert calls[0][0] is owners and calls[0][1] is values

    def test_mixed_owners_defer_only_the_non_hub_elements(self, monkeypatch):
        g, hub = self._index(monkeypatch)
        rng = np.random.default_rng(1)
        owners = rng.integers(0, g.num_vertices, 300)
        values = rng.integers(0, g.num_vertices, 300)
        on_hub = hub.row_of[owners] >= 0
        assert on_hub.any() and not on_hub.all()
        seen = []

        def fallback(o, v):
            seen.append(o.copy())
            return self._truth(g, o, v)

        got = hub.member(owners, values, fallback)
        assert np.array_equal(got, self._truth(g, owners, values))
        assert len(seen) == 1
        assert seen[0].tolist() == owners[~on_hub].tolist()
