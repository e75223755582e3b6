"""Synthetic graph generators, including stand-ins for the paper's datasets.

The paper evaluates on Mico (100K/1M, 29 labels), Patents (3.7M/16M edges;
labeled variant 2.7M/13M, 37 labels), Orkut (3M/117M) and Friendster
(65M/1.8B).  Pure Python cannot sweep billion-edge graphs inside a benchmark
run, so we generate *scaled-down stand-ins* preserving the structural traits
the evaluation depends on:

* heavy-tailed degree distributions (preferential attachment) so that
  degree-ordering (§5.2) and hub-first scheduling matter;
* each dataset's relative density (Mico dense, Patents sparse, Orkut dense
  social, Friendster large-and-sparse);
* label alphabets of comparable size for the labeled datasets.

All generators take a ``seed`` and are fully deterministic.
"""

from __future__ import annotations

import random
from typing import Callable

from ..errors import GraphError
from .builder import from_edges
from .graph import DataGraph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "power_law",
    "random_regular",
    "complete_graph",
    "star_graph",
    "chain_graph",
    "cycle_graph",
    "grid_graph",
    "with_random_labels",
    "mico_like",
    "patents_like",
    "orkut_like",
    "friendster_like",
    "DATASET_GENERATORS",
]


def erdos_renyi(n: int, p: float, seed: int = 0, name: str = "erdos-renyi") -> DataGraph:
    """G(n, p) random graph."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return from_edges(edges, num_vertices=n, name=name)


def barabasi_albert(n: int, m: int, seed: int = 0, name: str = "barabasi-albert") -> DataGraph:
    """Preferential-attachment graph: each new vertex attaches to ``m`` targets.

    Produces the heavy-tailed degree distribution typical of the paper's
    social/citation datasets.
    """
    if m < 1 or n < m + 1:
        raise GraphError(f"need n > m >= 1, got n={n}, m={m}")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    # Repeated-endpoints list implements preferential attachment in O(1).
    repeated: list[int] = []
    # Seed clique over the first m+1 vertices to give attachment targets.
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            edges.append((u, v))
            repeated.extend((u, v))
    for u in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for v in targets:
            edges.append((u, v))
            repeated.extend((u, v))
    return from_edges(edges, num_vertices=n, name=name)


def power_law(
    n: int,
    gamma: float = 2.5,
    d_min: int = 2,
    d_max: int | None = None,
    seed: int = 0,
    name: str = "power-law",
) -> DataGraph:
    """Configuration-model graph with a tunable power-law degree tail.

    Degrees are drawn from ``P(d) ∝ d^-gamma`` on ``[d_min, d_max]``
    (default cap ``n - 1``) and wired by uniform stub pairing;
    self-loops and duplicate edges are dropped, so realized degrees can
    undershoot slightly.  Unlike :func:`barabasi_albert` (whose exponent
    is pinned at 3), ``gamma`` directly controls skew: values toward 2
    put a growing share of all edges on a handful of hubs — the regime
    where static work partitions straggle and dynamic (work-stealing)
    scheduling earns its keep (``benchmarks/bench_parallel.py``).
    """
    if n < 2:
        raise GraphError(f"need at least 2 vertices, got {n}")
    if gamma <= 1.0:
        raise GraphError(f"need gamma > 1 for a normalizable tail, got {gamma}")
    if d_min < 1:
        raise GraphError(f"need d_min >= 1, got {d_min}")
    cap = n - 1 if d_max is None else min(d_max, n - 1)
    if cap < d_min:
        raise GraphError(f"degree cap {cap} below d_min {d_min}")
    rng = random.Random(seed)
    # Inverse-CDF sampling of the continuous Pareto tail, clamped to the
    # integer range: deterministic, no numpy needed.
    inv_exp = 1.0 / (gamma - 1.0)
    degrees = []
    for _ in range(n):
        u = 1.0 - rng.random()  # (0, 1]
        d = int(d_min * u ** -inv_exp)
        degrees.append(min(max(d, d_min), cap))
    if sum(degrees) % 2:
        degrees[rng.randrange(n)] += 1
    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(stubs)
    edges = {
        (min(u, v), max(u, v))
        for u, v in zip(stubs[::2], stubs[1::2])
        if u != v
    }
    return from_edges(sorted(edges), num_vertices=n, name=name)


def random_regular(n: int, d: int, seed: int = 0, name: str = "random-regular") -> DataGraph:
    """Approximately d-regular random graph via pairing with retry.

    Falls back to dropping conflicting stubs (self-loops / multi-edges), so
    a few vertices may end up with degree ``d - 1``; fine for workloads.
    """
    if d < 0 or d >= n:
        raise GraphError(f"need 0 <= d < n, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise GraphError("n * d must be even for a regular graph")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(64):
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(u != v for u, v in pairs) and len({frozenset(p) for p in pairs}) == len(pairs):
            return from_edges(pairs, num_vertices=n, name=name)
    # Give up on a perfect matching; drop conflicts.
    pairs = [(u, v) for u, v in zip(stubs[::2], stubs[1::2]) if u != v]
    return from_edges(pairs, num_vertices=n, name=name)


def complete_graph(n: int, name: str = "complete") -> DataGraph:
    """K_n."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edges(edges, num_vertices=n, name=name)


def star_graph(n: int, name: str = "star") -> DataGraph:
    """Star with one hub (vertex 0) and ``n - 1`` leaves."""
    return from_edges([(0, v) for v in range(1, n)], num_vertices=n, name=name)


def chain_graph(n: int, name: str = "chain") -> DataGraph:
    """Path on ``n`` vertices."""
    return from_edges([(v, v + 1) for v in range(n - 1)], num_vertices=n, name=name)


def cycle_graph(n: int, name: str = "cycle") -> DataGraph:
    """Cycle on ``n`` vertices (n >= 3)."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    edges = [(v, (v + 1) % n) for v in range(n)]
    return from_edges(edges, num_vertices=n, name=name)


def grid_graph(rows: int, cols: int, name: str = "grid") -> DataGraph:
    """rows x cols grid graph."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return from_edges(edges, num_vertices=rows * cols, name=name)


def with_random_labels(
    graph: DataGraph, num_labels: int, seed: int = 0
) -> DataGraph:
    """Copy of ``graph`` with uniformly random labels from 0..num_labels-1.

    This mirrors the paper's treatment of Orkut/Friendster for labeled
    pattern p2 ('we added synthetic labels with uniform probability').
    """
    if num_labels < 1:
        raise GraphError(f"need at least one label, got {num_labels}")
    rng = random.Random(seed)
    labels = [rng.randrange(num_labels) for _ in graph.vertices()]
    offsets, flat, _ = graph.csr_arrays()
    return DataGraph.from_csr(offsets, flat, labels, name=graph.name)


# ----------------------------------------------------------------------
# Dataset stand-ins (Table 2). Scales chosen so the full benchmark suite
# runs in minutes of pure Python while preserving relative density and
# degree skew: mico dense + 29 labels, patents sparse + 37 labels,
# orkut dense social, friendster larger and sparse.
# ----------------------------------------------------------------------


def mico_like(scale: float = 1.0, seed: int = 7) -> DataGraph:
    """Stand-in for Mico: dense labeled co-authorship-like graph, 29 labels."""
    n = max(32, int(600 * scale))
    base = barabasi_albert(n, m=6, seed=seed, name="mico-like")
    return with_random_labels(base, num_labels=29, seed=seed + 1)


def patents_like(scale: float = 1.0, seed: int = 11, labeled: bool = False) -> DataGraph:
    """Stand-in for Patents: sparse citation-like graph; 37 labels if labeled."""
    n = max(64, int(2000 * scale))
    base = barabasi_albert(n, m=3, seed=seed, name="patents-like")
    if labeled:
        return with_random_labels(base, num_labels=37, seed=seed + 1)
    return base


def orkut_like(scale: float = 1.0, seed: int = 13) -> DataGraph:
    """Stand-in for Orkut: dense social graph with strong degree skew."""
    n = max(64, int(1500 * scale))
    return barabasi_albert(n, m=12, seed=seed, name="orkut-like")


def friendster_like(scale: float = 1.0, seed: int = 17) -> DataGraph:
    """Stand-in for Friendster: the largest and sparsest social stand-in."""
    n = max(128, int(6000 * scale))
    return barabasi_albert(n, m=4, seed=seed, name="friendster-like")


DATASET_GENERATORS: dict[str, Callable[..., DataGraph]] = {
    "mico": mico_like,
    "patents": patents_like,
    "orkut": orkut_like,
    "friendster": friendster_like,
}
