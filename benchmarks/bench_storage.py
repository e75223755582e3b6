"""Storage-tier benchmark: cold starts, fan-out residency, hub membership.

Peregrine converts text inputs to a packed binary adjacency format
precisely because parse-time dominates small-query latency; this bench
measures what our storage tiers buy on the same axes:

* **cold_start** — wall-clock to go from a file on disk to a usable
  :class:`~repro.graph.graph.DataGraph`, for the text edge list, the
  compressed ``.npz`` archive, and the mmap ``.rgx`` store.  The store's
  claim is O(header) Python work (three ``mmap`` calls, no adjacency
  materialization), so its open time must be bounded away from both
  parsers — acceptance pins ``.rgx`` at >= 5x over text parse.
* **fanout_rss** — per-worker and parent-side memory when a process pool
  shares one CSR graph, under the runtime's two share modes.  ``fork``
  workers inherit the parent's heap-resident CSR arrays copy-on-write
  (anonymous, unevictable pages the parent must hold) while ``mmap``
  workers re-open the ``.rgx`` file and share clean page-cache pages.
  Workers touch every page, then report ``VmRSS``/``Pss`` from procfs;
  the parent reports the bytes each mode keeps resident.  Both modes
  *share* pages across workers — the measured story is the parent-side
  heap copy mmap does without.
* **membership** — the roaring hub kernels vs the searchsorted adjacency
  keys on power-law hub queries: the
  :class:`~repro.core.accel.HubMembershipIndex` compiles each hub row
  into packed bits (via :class:`~repro.bitmap.roaring.RoaringBitmap`),
  so a batched anti-edge/injectivity probe against hubs is two array
  lookups instead of an O(log E) search per element.

Run the full measurement (writes ``BENCH_storage.json``)::

    python -m pytest benchmarks/bench_storage.py -q -s

The ``fast``-marked smoke joins the CI benchmark matrix automatically.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from benchmarks.common import timed

from repro.core import count
from repro.graph import (
    GraphStore,
    load_edge_list,
    load_mmap,
    load_npz,
    power_law,
    save_edge_list,
    save_mmap,
    save_npz,
)
from repro.pattern import generate_clique

np = pytest.importorskip("numpy")

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_storage.json"

ROUNDS = 5
FANOUT_WORKERS = 2

# ----------------------------------------------------------------------
# Fan-out RSS probes (module-level: fork workers resolve them by name)
# ----------------------------------------------------------------------

_PROBE_STATE: dict = {}


def _read_proc_kb(path: str, key: str):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - smaps_rollup may be absent
        return None
    return None


def _fork_probe_init(arrays):
    # Under the fork start method initargs are inherited, not pickled.
    _PROBE_STATE["arrays"] = arrays


def _mmap_probe_init(path):
    store = GraphStore(path)
    _PROBE_STATE["store"] = store  # keep the mappings alive
    _PROBE_STATE["arrays"] = [store.offsets, store.neighbors]


def _touch_and_measure(_worker_id):
    """Fault in every shared page, then report this worker's residency."""
    checksum = 0
    for arr in _PROBE_STATE["arrays"]:
        checksum += int(np.asarray(arr).sum())
    return {
        "rss_kb": _read_proc_kb("/proc/self/status", "VmRSS:"),
        "pss_kb": _read_proc_kb("/proc/self/smaps_rollup", "Pss:"),
        "checksum": checksum,
    }


def _fanout_probe(graph, rgx_path: str, workers: int) -> dict:
    """Worker residency under fork fan-out vs mmap fan-out of one CSR."""
    from repro.core import accel

    ctx = multiprocessing.get_context("fork")
    ordered, _ = graph.degree_ordered()
    view = accel.shared_view(ordered)

    # The fork tier shares heap arrays: copy the (possibly mapped) CSR
    # sections into anonymous memory, as a generated graph's view holds
    # them.
    offsets, flat, _ = view.graph.csr_arrays()
    heap = [np.array(offsets), np.array(flat)]
    heap_bytes = sum(arr.nbytes for arr in heap)
    with ctx.Pool(
        processes=workers,
        initializer=_fork_probe_init,
        initargs=(heap,),
    ) as pool:
        fork_reports = pool.map(_touch_and_measure, range(workers))

    with ctx.Pool(
        processes=workers,
        initializer=_mmap_probe_init,
        initargs=(rgx_path,),
    ) as pool:
        mmap_reports = pool.map(_touch_and_measure, range(workers))

    # The same pages must have been faulted in under both modes.
    sums = {r["checksum"] for r in fork_reports + mmap_reports}
    assert len(sums) == 1

    def summarize(reports):
        rss = [r["rss_kb"] for r in reports if r["rss_kb"] is not None]
        pss = [r["pss_kb"] for r in reports if r["pss_kb"] is not None]
        return {
            "max_worker_rss_kb": max(rss) if rss else None,
            "max_worker_pss_kb": max(pss) if pss else None,
        }

    fork_summary = summarize(fork_reports)
    mmap_summary = summarize(mmap_reports)
    delta = {}
    for key in ("max_worker_rss_kb", "max_worker_pss_kb"):
        if fork_summary[key] is not None and mmap_summary[key] is not None:
            delta[key.replace("max_worker_", "fork_minus_mmap_")] = (
                fork_summary[key] - mmap_summary[key]
            )
    return {
        "workers": workers,
        "csr_payload_bytes": int(view.memory_bytes()),
        "fork": {
            **fork_summary,
            "parent_heap_bytes": int(heap_bytes),
        },
        "mmap": {
            **mmap_summary,
            "store_file_bytes": os.path.getsize(rgx_path),
            "parent_extra_bytes": 0,
        },
        **delta,
    }


# ----------------------------------------------------------------------
# Membership microbench
# ----------------------------------------------------------------------


def _membership_round(graph, queries: int, seed: int) -> dict:
    """Roaring hub rows vs searchsorted keys on hub-heavy query batches."""
    from repro.core import accel

    ordered, _ = graph.degree_ordered()
    view = accel.AcceleratedGraphView(ordered)
    build_seconds, hubs = timed(lambda: view.hub_index())
    assert hubs is not None, "benchmark graph has no hubs at the threshold"
    engine = accel.FrontierBatchedEngine(view)

    rng = np.random.default_rng(seed)
    n = ordered.num_vertices
    hub_ids = np.asarray(hubs.hubs, dtype=np.int64)
    owners = hub_ids[rng.integers(0, hub_ids.size, queries)]
    values = rng.integers(0, n, queries).astype(np.int64)

    sorted_seconds, want = timed(
        lambda: engine._member_sorted(owners, values)
    )
    roaring_seconds, got = timed(
        lambda: hubs.member(owners, values, engine._member_sorted)
    )
    assert np.array_equal(got, want)
    return {
        "queries": queries,
        "num_hubs": int(hub_ids.size),
        "index_build_seconds": build_seconds,
        "index_bytes": int(hubs.memory_bytes()),
        "searchsorted_seconds": sorted_seconds,
        "roaring_seconds": roaring_seconds,
        "roaring_speedup": (
            sorted_seconds / roaring_seconds
            if roaring_seconds > 0
            else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# The tests
# ----------------------------------------------------------------------


@pytest.mark.fast
@pytest.mark.paper_artifact("storage")
def test_storage_smoke(tmp_path):
    """CI smoke: every tier round-trips and the probes keep working."""
    g = power_law(300, gamma=1.8, seed=5)
    rgx = tmp_path / "g.rgx"
    txt = tmp_path / "g.edges"
    save_mmap(g, rgx)
    save_edge_list(g, txt)
    h = load_mmap(rgx)
    assert h == g
    expected = count(g, generate_clique(3))
    assert count(h, generate_clique(3)) == expected
    probe = _fanout_probe(h, str(rgx), workers=2)
    assert probe["fork"]["parent_heap_bytes"] > 0
    assert probe["mmap"]["store_file_bytes"] == os.path.getsize(rgx)
    row = _membership_round(power_law(800, gamma=1.5, seed=3), 2_000, seed=1)
    assert row["num_hubs"] > 0


@pytest.mark.paper_artifact("storage")
def test_storage_emits_json(tmp_path, capsys):
    """Full measurement: cold starts, fan-out residency, hub membership."""
    g = power_law(20_000, gamma=2.0, seed=7, name="power-law-20k")
    txt = tmp_path / "g.edges"
    npz = tmp_path / "g.npz"
    rgx = tmp_path / "g.rgx"
    save_edge_list(g, txt)
    save_npz(g, npz)
    save_mmap(g, rgx)

    loaders = {
        "text": lambda: load_edge_list(txt),
        "npz": lambda: load_npz(npz),
        "mmap": lambda: load_mmap(rgx),
    }
    cold = {name: [] for name in loaders}
    for _ in range(ROUNDS):
        for name, loader in loaders.items():
            elapsed, loaded = timed(loader)
            assert loaded.num_vertices == g.num_vertices
            cold[name].append(elapsed)
    best = {name: min(times) for name, times in cold.items()}
    cold_start = {
        "rounds": ROUNDS,
        "file_bytes": {
            "text": os.path.getsize(txt),
            "npz": os.path.getsize(npz),
            "mmap": os.path.getsize(rgx),
        },
        "best_seconds": best,
        "all_seconds": cold,
        "mmap_speedup_vs_text": best["text"] / best["mmap"],
        "mmap_speedup_vs_npz": best["npz"] / best["mmap"],
    }

    fanout = _fanout_probe(load_mmap(rgx), str(rgx), FANOUT_WORKERS)

    membership_graph = power_law(6_000, gamma=1.6, seed=11)
    membership = [
        _membership_round(membership_graph, queries, seed=i)
        for i, queries in enumerate((10_000, 100_000))
    ]

    payload = {
        "bench": "storage",
        "n": g.num_vertices,
        "edges": g.num_edges,
        "note": (
            "Storage-tier measurements on a power-law graph.  cold_start "
            "times file -> usable DataGraph per tier (best of "
            f"{ROUNDS} rounds; the .rgx open is O(header) Python work, "
            "no adjacency materialization).  fanout_rss forks "
            f"{FANOUT_WORKERS} workers that fault in every CSR page and "
            "report procfs VmRSS/Pss: fork workers inherit the parent's "
            "heap CSR copy-on-write (parent_heap_bytes of anonymous, "
            "unevictable pages), mmap workers re-open the store file and "
            "share clean, evictable page-cache pages (zero parent-side "
            "copy).  "
            "membership compares the searchsorted adjacency-key kernel "
            "against the roaring-compiled HubMembershipIndex bit rows on "
            "hub-owner query batches (the anti-edge / injectivity probe "
            "shape); index_build_seconds is the one-time view-build cost."
        ),
        "cold_start": cold_start,
        "fanout_rss": fanout,
        "membership": membership,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print("\n=== storage: cold start (seconds, best of rounds) ===")
        for name, seconds in best.items():
            print(f"{name:<6} {seconds:>10.6f}")
        print(
            f"mmap vs text: {cold_start['mmap_speedup_vs_text']:.0f}x, "
            f"vs npz: {cold_start['mmap_speedup_vs_npz']:.0f}x"
        )
        print("=== storage: fan-out residency ===")
        print(
            f"fork worker rss {fanout['fork']['max_worker_rss_kb']} KiB, "
            f"parent heap {fanout['fork']['parent_heap_bytes']} B"
        )
        print(
            f"mmap worker rss {fanout['mmap']['max_worker_rss_kb']} KiB, "
            f"file {fanout['mmap']['store_file_bytes']} B"
        )
        print("=== storage: hub membership ===")
        for row in membership:
            print(
                f"{row['queries']:>7} queries: searchsorted "
                f"{row['searchsorted_seconds']:.5f}s, roaring "
                f"{row['roaring_seconds']:.5f}s "
                f"({row['roaring_speedup']:.1f}x)"
            )
        print(f"wrote {OUTPUT_PATH}")

    # Acceptance: the mmap tier's cold start is bounded away from parsing.
    assert cold_start["mmap_speedup_vs_text"] >= 5.0, (
        "mmap cold start regressed to within 5x of text parsing "
        f"({cold_start['mmap_speedup_vs_text']:.1f}x)"
    )
    # The fork tier's parent-side heap copy is what mmap does without.
    assert fanout["fork"]["parent_heap_bytes"] > 0
    assert fanout["mmap"]["parent_extra_bytes"] == 0
