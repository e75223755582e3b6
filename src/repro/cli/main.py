"""Argument parser wiring for ``repro-mine``.

``build_parser`` is separate from ``main`` so tests (and docs tooling)
can inspect the CLI surface without executing anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .. import __version__
from ..core.session import _ENGINE_CHOICES, _MULTI_ENGINE_CHOICES
from . import commands
from .parsing import add_dataset_arguments

__all__ = ["build_parser", "main"]


def _add_pattern_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pattern",
        required=True,
        help="pattern spec: clique:K, star:K, chain:K, cycle:K, p1..p8, "
        "edges:0-1,1-2,..., or file:PATH",
    )


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes pulling degree-weighted frontier chunks "
        "from a shared queue (shared-CSR pool; 1 = in-process)",
    )


def _add_guard_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per query; runs past it stop "
        "cooperatively and are reported as truncated",
    )
    parser.add_argument(
        "--max-matches",
        type=int,
        default=None,
        metavar="N",
        help="stop after roughly N matches (cooperative; in-process "
        "engines only)",
    )
    parser.add_argument(
        "--guard",
        choices=["off", "refuse", "downgrade"],
        default="off",
        help="admission guard: probe the query's frontier up front and "
        "refuse (exit 3) or downgrade predicted-explosive runs",
    )


def _add_matching_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--vertex-induced",
        action="store_true",
        help="vertex-induced matching (Theorem 3.1) instead of edge-induced",
    )
    parser.add_argument(
        "--no-symmetry-breaking",
        action="store_true",
        help="PRG-U mode: report every automorphic copy (Figure 10 ablation)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description="Pattern-aware graph mining (Peregrine, EuroSys 2020)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="Table-2 style dataset statistics")
    add_dataset_arguments(p)
    p.set_defaults(func=commands.cmd_stats)

    p = sub.add_parser("generate", help="write a synthetic dataset to disk")
    add_dataset_arguments(p)
    p.add_argument("--output", required=True, help="edge-list output path")
    p.add_argument("--label-output", help="vertex-label output path")
    p.set_defaults(func=commands.cmd_generate)

    p = sub.add_parser("plan", help="show a pattern's exploration plan")
    _add_pattern_argument(p)
    _add_matching_flags(p)
    p.set_defaults(func=commands.cmd_plan)

    p = sub.add_parser(
        "explain",
        help="probe a query and print its cost estimate and plan "
        "without running it",
    )
    add_dataset_arguments(p)
    _add_pattern_argument(p)
    _add_matching_flags(p)
    p.add_argument(
        "--processes",
        type=int,
        default=None,
        help="pin the worker count (default: the plan sizes the pool "
        "from the probed work, up to the machine's cores)",
    )
    p.add_argument(
        "--engine",
        choices=_ENGINE_CHOICES,
        default="auto",
        help="pin an engine ('auto' lets the planner choose)",
    )
    p.set_defaults(func=commands.cmd_explain)

    p = sub.add_parser("count", help="count matches of a pattern")
    add_dataset_arguments(p)
    _add_pattern_argument(p)
    _add_matching_flags(p)
    p.add_argument(
        "--profile",
        action="store_true",
        help="print engine counters (tasks, partial matches, ...)",
    )
    p.add_argument(
        "--engine",
        choices=_ENGINE_CHOICES,
        default="auto",
        help="pin an engine ('auto' plans it from the probed "
        "frontier; --profile forces the reference engine)",
    )
    p.add_argument(
        "--approx",
        type=float,
        default=None,
        metavar="REL_ERR",
        help="estimate the count instead of enumerating: sample the "
        "frontier adaptively until the confidence interval is within "
        "REL_ERR of the estimate (prints the CI)",
    )
    p.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for the --approx interval (default 0.95)",
    )
    p.add_argument(
        "--max-samples",
        type=int,
        default=None,
        metavar="N",
        help="cap on sampled start vertices for --approx (covering the "
        "whole frontier degenerates to the exact count)",
    )
    p.add_argument(
        "--sample-seed",
        type=int,
        default=None,
        help="sampling RNG seed for --approx (reproducible estimates)",
    )
    p.add_argument(
        "--latency-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="auto-route to the approximate tier when the probe "
        "predicts the exact run would blow this budget",
    )
    _add_parallel_flags(p)
    _add_guard_flags(p)
    p.set_defaults(func=commands.cmd_count)

    p = sub.add_parser("match", help="enumerate matches of a pattern")
    add_dataset_arguments(p)
    _add_pattern_argument(p)
    p.add_argument(
        "--vertex-induced", action="store_true", help="vertex-induced matching"
    )
    p.add_argument("--output", help="write matches to this file")
    p.add_argument(
        "--limit", type=int, default=None, help="print at most N matches"
    )
    p.set_defaults(func=commands.cmd_match)

    p = sub.add_parser("exists", help="existence query (early termination)")
    add_dataset_arguments(p)
    _add_pattern_argument(p)
    p.add_argument(
        "--vertex-induced", action="store_true", help="vertex-induced matching"
    )
    p.set_defaults(func=commands.cmd_exists)

    p = sub.add_parser("motifs", help="vertex-induced motif census")
    add_dataset_arguments(p)
    p.add_argument("--size", type=int, default=3, help="motif size (vertices)")
    p.add_argument(
        "--engine",
        choices=_MULTI_ENGINE_CHOICES,
        default=None,
        help="engine selection; 'fused' forces the multi-pattern runner, "
        "'accel-batch' ablates it with sequential per-pattern execution",
    )
    _add_parallel_flags(p)
    _add_guard_flags(p)
    p.set_defaults(func=commands.cmd_motifs)

    p = sub.add_parser("cliques", help="k-clique counting and variants")
    add_dataset_arguments(p)
    p.add_argument("-k", type=int, required=True, help="clique size")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--existence", action="store_true", help="stop at the first clique"
    )
    mode.add_argument(
        "--maximal",
        action="store_true",
        help="count k-cliques in no (k+1)-clique (anti-vertex query)",
    )
    mode.add_argument("--list", action="store_true", help="list cliques")
    p.add_argument(
        "--limit", type=int, default=None, help="list at most N cliques"
    )
    p.set_defaults(func=commands.cmd_cliques)

    p = sub.add_parser("fsm", help="frequent subgraph mining (MNI support)")
    add_dataset_arguments(p)
    p.add_argument(
        "--edges", type=int, default=2, help="pattern size in edges"
    )
    p.add_argument(
        "--threshold", type=int, required=True, help="MNI support threshold"
    )
    p.add_argument(
        "--verbose", action="store_true", help="print each frequent pattern"
    )
    p.add_argument(
        "--engine",
        choices=_MULTI_ENGINE_CHOICES,
        default=None,
        help="engine selection for each round's structural matches; "
        "'fused' forces the round onto one shared frontier walk",
    )
    _add_guard_flags(p)
    p.set_defaults(func=commands.cmd_fsm)

    p = sub.add_parser("graph", help="on-disk graph store tooling")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    c = gsub.add_parser(
        "convert",
        help="convert between graph formats "
        "(.rgx mmap store, .npz, edge list — by extension)",
    )
    c.add_argument("input", help="source graph (.rgx, .npz, or edge list)")
    c.add_argument(
        "output", help="destination (.rgx, .npz, or edge list by extension)"
    )
    c.add_argument(
        "--labels",
        metavar="FILE",
        help="vertex-label file accompanying an edge-list input",
    )
    c.add_argument(
        "--degree-order",
        action="store_true",
        help="degree-order vertices before writing, so mining reloads "
        "skip the ordering pass entirely",
    )
    c.set_defaults(func=commands.cmd_graph_convert)
    i = gsub.add_parser("info", help="print an .rgx store's header")
    i.add_argument("path", help=".rgx file to inspect")
    i.set_defaults(func=commands.cmd_graph_info)

    p = sub.add_parser(
        "serve", help="serve mining queries over HTTP/JSON (async service)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 picks a free one; default 8765)",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="mining worker threads"
    )
    p.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="resident graph sessions before LRU eviction",
    )
    p.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict sessions idle longer than this",
    )
    p.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="batching window before a bucket flushes",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="requests that flush a bucket immediately",
    )
    p.add_argument(
        "--no-batching",
        action="store_true",
        help="run every request solo (ablation / debugging)",
    )
    p.set_defaults(func=commands.cmd_serve)

    p = sub.add_parser(
        "approx",
        help="approximate counting with error bounds (sampling tier)",
    )
    add_dataset_arguments(p)
    _add_pattern_argument(p)
    p.add_argument(
        "--vertex-induced", action="store_true", help="vertex-induced matching"
    )
    p.add_argument(
        "--rel-err",
        type=float,
        default=0.05,
        help="target relative error the adaptive estimator grows "
        "samples to meet (default 0.05)",
    )
    p.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for the reported interval (default 0.95)",
    )
    p.add_argument(
        "--max-samples",
        type=int,
        default=None,
        metavar="N",
        help="cap on sampled start vertices (covering the whole "
        "frontier degenerates to the exact count)",
    )
    p.add_argument(
        "--sample-seed", type=int, default=None, help="sampling RNG seed"
    )
    p.set_defaults(func=commands.cmd_approx)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, sys.stdout)
