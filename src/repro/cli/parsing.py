"""Shared argument handling for the CLI: dataset and pattern specs.

Kept separate from the command implementations so both the argument
parser (help text) and the commands agree on one spec grammar, and so
tests can exercise spec parsing without argparse.
"""

from __future__ import annotations

import argparse

from ..errors import PatternFormatError
from ..graph.generators import (
    friendster_like,
    mico_like,
    orkut_like,
    patents_like,
)
from ..graph.binary_io import open_graph
from ..graph.graph import DataGraph
from ..graph.io import load_edge_list, load_labeled
from ..pattern.evaluation import (
    pattern_p1,
    pattern_p2,
    pattern_p3,
    pattern_p4,
    pattern_p5,
    pattern_p6,
    pattern_p7,
    pattern_p8,
)
from ..pattern.generators import (
    generate_chain,
    generate_clique,
    generate_cycle,
    generate_star,
)
from ..pattern.io import load_pattern
from ..pattern.pattern import Pattern

__all__ = [
    "add_dataset_arguments",
    "add_service_arguments",
    "load_dataset",
    "parse_pattern_spec",
]

_DATASET_FACTORIES = {
    "mico": lambda scale, seed, labeled: mico_like(scale, seed=seed),
    "patents": lambda scale, seed, labeled: patents_like(
        scale, seed=seed, labeled=labeled
    ),
    "orkut": lambda scale, seed, labeled: orkut_like(scale, seed=seed),
    "friendster": lambda scale, seed, labeled: friendster_like(scale, seed=seed),
}

_FIGURE9 = {
    "p1": pattern_p1,
    "p2": pattern_p2,
    "p3": pattern_p3,
    "p4": pattern_p4,
    "p5": pattern_p5,
    "p6": pattern_p6,
    "p7": pattern_p7,
    "p8": pattern_p8,
}

_GENERATORS = {
    "clique": generate_clique,
    "star": generate_star,
    "chain": generate_chain,
    "cycle": generate_cycle,
}


def add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the dataset-selection argument group to a subparser."""
    group = parser.add_argument_group("dataset")
    group.add_argument(
        "--dataset",
        choices=sorted(_DATASET_FACTORIES),
        help="synthetic stand-in dataset (see DESIGN.md substitutions)",
    )
    group.add_argument(
        "--graph",
        metavar="FILE",
        help="graph file to load instead of a synthetic dataset "
        "(.rgx mmap store, .npz binary, or whitespace edge list)",
    )
    group.add_argument(
        "--labels",
        metavar="FILE",
        help="vertex-label file accompanying --graph",
    )
    group.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="size multiplier for synthetic datasets (default 0.1)",
    )
    group.add_argument(
        "--labeled",
        action="store_true",
        help="generate the labeled variant (patents only)",
    )
    group.add_argument(
        "--seed", type=int, default=None, help="generator seed override"
    )


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the HTTP service flags: ``repro-mine serve`` and
    ``python -m repro.service`` take the same ones."""
    # Deferred: ``repro.service.handlers`` imports this module.
    from ..service.http import DEFAULT_HOST, DEFAULT_PORT
    from ..service.service import ServiceConfig

    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"TCP port (0 picks a free one; default {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--workers", type=int, default=ServiceConfig.workers,
        help="mining worker threads",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=ServiceConfig.max_sessions,
        help="resident graph sessions before LRU eviction",
    )
    parser.add_argument(
        "--ttl", type=float, default=ServiceConfig.ttl_seconds,
        metavar="SECONDS", help="evict sessions idle longer than this",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=ServiceConfig.max_wait_ms,
        help="batching window before a bucket flushes",
    )
    parser.add_argument(
        "--max-batch", type=int, default=ServiceConfig.max_batch,
        help="requests that flush a bucket immediately",
    )
    parser.add_argument(
        "--no-batching", action="store_true",
        help="run every request solo (ablation / debugging)",
    )


def load_dataset(args: argparse.Namespace) -> DataGraph:
    """Materialize the graph selected by parsed dataset arguments."""
    if args.graph:
        if str(args.graph).endswith((".npz", ".rgx")):
            if args.labels:
                raise SystemExit(
                    "error: binary graph formats embed labels; --labels "
                    "applies to edge-list graphs only"
                )
            return open_graph(args.graph)
        if args.labels:
            return load_labeled(args.graph, args.labels)
        return load_edge_list(args.graph)
    if not args.dataset:
        raise SystemExit("error: one of --dataset or --graph is required")
    factory = _DATASET_FACTORIES[args.dataset]
    if args.seed is not None:
        return _with_seed(factory, args)
    return factory(args.scale, _default_seed(args.dataset), args.labeled)


def _default_seed(dataset: str) -> int:
    return {"mico": 7, "patents": 11, "orkut": 13, "friendster": 17}[dataset]


def _with_seed(factory, args: argparse.Namespace) -> DataGraph:
    return factory(args.scale, args.seed, args.labeled)


def parse_pattern_spec(spec: str) -> Pattern:
    """Parse a ``--pattern`` spec into a Pattern.

    Grammar::

        clique:K | star:K | chain:K | cycle:K     generated patterns
        p1 .. p8                                  Figure 9 patterns
        edges:0-1,1-2,...                         explicit edge list
        file:PATH                                 pattern file on disk
    """
    spec = spec.strip()
    if spec in _FIGURE9:
        return _FIGURE9[spec]()
    head, sep, tail = spec.partition(":")
    if not sep:
        raise PatternFormatError(
            f"bad pattern spec {spec!r}: expected NAME:ARG or p1..p8"
        )
    if head in _GENERATORS:
        try:
            size = int(tail)
        except ValueError:
            raise PatternFormatError(
                f"bad pattern spec {spec!r}: size must be an integer"
            ) from None
        return _GENERATORS[head](size)
    if head == "file":
        return load_pattern(tail)
    if head == "edges":
        edges = []
        for part in tail.split(","):
            a, sep2, b = part.partition("-")
            if not sep2:
                raise PatternFormatError(
                    f"bad edge {part!r} in pattern spec: expected U-V"
                )
            try:
                edges.append((int(a), int(b)))
            except ValueError:
                raise PatternFormatError(
                    f"bad edge {part!r} in pattern spec: endpoints must be ints"
                ) from None
        return Pattern.from_edges(edges)
    raise PatternFormatError(f"unknown pattern spec kind {head!r}")
