"""Seeded inputs: the size table and the graph builders.

Every graph comes from the repo's own generators; the program under test
only ever sees the resulting ``.rgx`` files / ``DataGraph`` objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.graph import (
    DataGraph,
    barabasi_albert,
    power_law,
    save_mmap,
    with_random_labels,
)

from .harness import Tracer

FSM_LABELS = 29  # MiCo's alphabet size
FSM_COMMON_SHARE = 0.8


@dataclass(frozen=True)
class Scale:
    """Input sizes of one ``--scale``."""

    pl_n: int  # G_pl: power_law(pl_n, gamma=2.7, d_min=3, d_max=100)
    ba_n: int  # G_ba: barabasi_albert(ba_n, ba_m) + 6 uniform labels
    ba_m: int
    fsm_n: int  # G_fsm: power_law(fsm_n, 2.7, 3, 20) + two label classes
    fsm_common: int  # labels that carry FSM_COMMON_SHARE of the vertices
    fsm_threshold: int  # MNI support threshold, ~2x a rare label's vertex count
    small_n: int  # G_small: power_law(small_n, gamma=2.5, d_min=3, d_max=100)
    requests_per_client: int  # service_mix pass length (a multiple of 20)


# "bench" is what BENCHMARK.json's command runs: one pass takes 0.4-3 s,
# so a 10 s run holds 4-25 passes and three set-ups fit beside them.
# "full" is the 100k-vertex tier of ISSUE 12 for manual runs (one pass
# takes 4-25 s; pass --seconds 25 or more); "tiny" is the smoke test only.
SCALES = {
    "tiny": Scale(1500, 600, 6, 400, 3, 10, 300, 20),
    "bench": Scale(12_000, 4_000, 10, 2_000, 4, 35, 1_000, 20),
    "full": Scale(100_000, 40_000, 10, 6_000, 6, 85, 5_000, 60),
}


def write_rgx(tracer: Tracer, graph_of, path: Path) -> Path:
    """Generate, degree-order and store one graph as ``.rgx``."""
    with tracer.span("graph.generate"):
        graph = graph_of()
    with tracer.span("graph.degree_order"):
        ordered, _ = graph.degree_ordered()
    with tracer.span("graph.save_mmap"):
        save_mmap(ordered, path)
    return path


def g_pl(scale: Scale, seed: int) -> DataGraph:
    return power_law(scale.pl_n, gamma=2.7, d_min=3, d_max=100, seed=seed)


def g_small(scale: Scale, seed: int) -> DataGraph:
    return power_law(scale.small_n, gamma=2.5, d_min=3, d_max=100, seed=seed + 1)


def g_ba(scale: Scale, seed: int) -> DataGraph:
    base = barabasi_albert(scale.ba_n, scale.ba_m, seed=seed)
    return with_random_labels(base, num_labels=6, seed=seed + 1)


def g_fsm(scale: Scale, seed: int) -> DataGraph:
    """Labeled FSM input whose explored-pattern count repeats across seeds.

    With uniform labels every label pair has about the same support, so a
    threshold sits inside that cluster and the frequent set (hence the
    work) swings 2x from seed to seed.  Two label classes remove the
    chance: ``fsm_common`` labels share 80% of the vertices and every
    1- and 2-edge pattern over them clears the threshold by a wide
    margin, while each of the remaining rare labels has fewer vertices
    than the threshold, so no pattern containing one can be frequent.
    The degree cap keeps match counts (domain writes) concentrated too.
    """
    base = power_law(scale.fsm_n, gamma=2.7, d_min=3, d_max=20, seed=seed)
    rare = FSM_LABELS - scale.fsm_common
    weights = [FSM_COMMON_SHARE / scale.fsm_common] * scale.fsm_common
    weights += [(1.0 - FSM_COMMON_SHARE) / rare] * rare
    labels = random.Random(seed + 1).choices(
        range(FSM_LABELS), weights=weights, k=base.num_vertices
    )
    return DataGraph(
        [base.neighbors(v) for v in base.vertices()], labels, validate=False
    )
