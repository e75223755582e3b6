"""Implementations of the ``repro-mine`` subcommands.

Each ``cmd_*`` takes the parsed argparse namespace and an output stream,
returns a process exit code, and prints human-readable results.  They are
thin session consumers: every command builds one
:class:`~repro.core.session.MiningSession` over the loaded dataset and
issues its queries through it, so multi-pattern commands (motif census,
clique scans, FSM rounds) share one degree ordering, derived arrays and plan
cache — and anything the CLI can do is equally scriptable from Python.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TextIO

from ..core.callbacks import Budget
from ..core.engine import EngineStats
from ..core.session import MiningSession
from ..errors import (
    BudgetExceededError,
    PartialResult,
    QueryCancelledError,
    QueryRefusedError,
)
from ..core.plan import generate_plan
from ..graph.binary_io import GraphStore, open_graph, save_mmap, save_npz
from ..graph.io import load_edge_list, load_labeled, save_edge_list, save_labels
from ..graph.stats import graph_stats
from ..mining.sampling import ApproxCount
from ..mining.cliques import (
    clique_count,
    clique_exists,
    list_cliques,
    maximal_clique_count,
)
from ..mining.fsm import fsm as fsm_api
from ..mining.motifs import motif_census_table
from ..pattern.io import pattern_to_text
from .parsing import load_dataset, parse_pattern_spec

__all__ = [
    "cmd_stats",
    "cmd_generate",
    "cmd_plan",
    "cmd_explain",
    "cmd_count",
    "cmd_match",
    "cmd_exists",
    "cmd_motifs",
    "cmd_cliques",
    "cmd_fsm",
    "cmd_approx",
    "cmd_graph_convert",
    "cmd_graph_info",
    "cmd_serve",
]


# Exit code for queries the admission guard refused up front — distinct
# from argparse errors (2) and success-with-truncation (0).
EXIT_REFUSED = 3


def _build_budget(args: argparse.Namespace) -> Budget | None:
    """The ``Budget`` described by ``--deadline`` / ``--max-matches``."""
    deadline = getattr(args, "deadline", None)
    max_matches = getattr(args, "max_matches", None)
    if deadline is None and max_matches is None:
        return None
    return Budget(deadline=deadline, max_matches=max_matches)


def _report_refused(err: QueryRefusedError, out: TextIO) -> int:
    print(f"refused: {err}", file=out)
    return EXIT_REFUSED


def _timed_header(out: TextIO, title: str) -> float:
    print(title, file=out)
    return time.perf_counter()


def _timed_footer(out: TextIO, begin: float) -> None:
    print(f"elapsed: {time.perf_counter() - begin:.3f}s", file=out)


def cmd_stats(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Table 2-style statistics for the selected graph."""
    graph = load_dataset(args)
    s = graph_stats(graph)
    print(s.row(), file=out)
    return 0


def cmd_generate(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Write a synthetic dataset to an edge-list (and optional label) file."""
    graph = load_dataset(args)
    if str(args.output).endswith(".npz"):
        save_npz(graph, args.output)
    else:
        save_edge_list(graph, args.output)
    print(
        f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges"
        f" to {args.output}",
        file=out,
    )
    if args.label_output:
        if not graph.is_labeled:
            raise SystemExit("error: --label-output needs a labeled graph")
        save_labels(graph, args.label_output)
        print(f"wrote labels to {args.label_output}", file=out)
    return 0


def cmd_plan(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Print a pattern's exploration plan (the Figure 5 pipeline output)."""
    pattern = parse_pattern_spec(args.pattern)
    plan = generate_plan(
        pattern,
        edge_induced=not args.vertex_induced,
        symmetry_breaking=not args.no_symmetry_breaking,
    )
    print(pattern_to_text(pattern), file=out)
    print(plan.describe(), file=out)
    return 0


def cmd_explain(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Probe a query and print its cost estimate and chosen plan.

    Runs nothing but the bounded probe walk every query's dispatch
    stage takes, so the output is exactly what a run of the same query
    would decide.
    """
    from ..runtime.planner import plan_query

    session = MiningSession(load_dataset(args))
    pattern = parse_pattern_spec(args.pattern)
    query_plan = plan_query(
        session,
        pattern,
        num_workers=getattr(args, "processes", None),
        edge_induced=not args.vertex_induced,
        symmetry_breaking=not args.no_symmetry_breaking,
        engine=getattr(args, "engine", "auto"),
    )
    est = query_plan.estimate
    print(f"pattern: {args.pattern}", file=out)
    if est is not None:
        print(
            f"frontier: {est.frontier_size} starts "
            f"({est.sampled} probed, {est.hub_count} hubs)",
            file=out,
        )
        print(
            f"level-1 expansion: avg {est.avg_expansion:.2f}, "
            f"max {est.max_expansion}, skew {est.hub_skew:.2f}",
            file=out,
        )
        print(f"growth trend: {est.growth:.2f}", file=out)
        print(
            f"predicted partials: {est.predicted_partials:.3g} "
            f"(raw {est.predicted_partials_raw:.3g}, "
            f"threshold {est.threshold:.3g})",
            file=out,
        )
        print("explosive: " + ("yes" if est.explosive else "no"), file=out)
    print(f"plan: {query_plan.describe()}", file=out)
    for reason in query_plan.reasons:
        print(f"  - {reason}", file=out)
    return 0


def cmd_count(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Count matches of one pattern (optionally across worker processes)."""
    session = MiningSession(load_dataset(args))
    pattern = parse_pattern_spec(args.pattern)
    processes = getattr(args, "processes", 1)
    stats = EngineStats() if args.profile else None
    engine = getattr(args, "engine", "auto")
    if processes > 1 and args.profile:
        raise SystemExit("error: --profile needs the in-process engine; "
                         "drop --processes")
    # Profiling counters live in the interpreter only: the stats hook
    # plans it under 'auto', and the batched engine cannot fill them.
    if args.profile and engine == "accel-batch":
        raise SystemExit("error: --profile needs the reference engine; "
                         "drop --engine accel-batch")
    if processes > 1 and engine != "auto":
        raise SystemExit("error: --processes picks engines per worker; "
                         "drop --engine")
    guard = getattr(args, "guard", "off")
    approx = getattr(args, "approx", None)
    latency_budget = getattr(args, "latency_budget", None)
    budget = _build_budget(args)
    if approx is not None or latency_budget is not None:
        flag = "--approx" if approx is not None else "--latency-budget"
        if processes > 1:
            raise SystemExit(f"error: {flag} runs in-process; "
                             "drop --processes")
        if args.profile:
            raise SystemExit(f"error: {flag} drives the sampling tier; "
                             "drop --profile")
        if budget is not None:
            raise SystemExit(f"error: {flag} has its own stopping rule; "
                             "drop --deadline/--max-matches")
    begin = time.perf_counter()
    if processes > 1:
        from ..runtime.parallel import process_count

        # Match caps are polled by the in-process engines; the pool's
        # budget story is deadline-as-cancellation (the shared token the
        # workers poll between and inside chunks).
        if getattr(args, "max_matches", None) is not None:
            raise SystemExit("error: --max-matches needs the in-process "
                             "engines; drop --processes or use --deadline")
        cancel = None
        if getattr(args, "deadline", None) is not None:
            from ..runtime.termination import DeadlineControl

            cancel = DeadlineControl(args.deadline)
        try:
            n = process_count(
                session,
                pattern,
                num_processes=processes,
                edge_induced=not args.vertex_induced,
                symmetry_breaking=not args.no_symmetry_breaking,
                cancel=cancel,
                guard=guard,
            )
        except QueryRefusedError as err:
            return _report_refused(err, out)
        except QueryCancelledError as err:
            n = err.partial
    else:
        try:
            n = session.count(
                pattern,
                edge_induced=not args.vertex_induced,
                symmetry_breaking=not args.no_symmetry_breaking,
                stats=stats,
                engine=engine,
                budget=budget,
                on_budget="partial",
                guard=guard,
                approx=approx,
                confidence=getattr(args, "confidence", 0.95),
                max_samples=getattr(args, "max_samples", None),
                seed=getattr(args, "sample_seed", None),
                latency_budget=latency_budget,
            )
        except QueryRefusedError as err:
            return _report_refused(err, out)
    elapsed = time.perf_counter() - begin
    print(f"matches: {int(n)}", file=out)
    if isinstance(n, ApproxCount):
        _print_approx(n, out)
    if isinstance(n, PartialResult) and n.truncated:
        print(f"truncated: {n.reason}", file=out)
    print(f"elapsed: {elapsed:.3f}s", file=out)
    if stats is not None:
        for key, value in stats.as_dict().items():
            print(f"  {key}: {value}", file=out)
    return 0


def cmd_match(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Enumerate matches, printing each mapping (or writing to a file)."""
    session = MiningSession(load_dataset(args))
    pattern = parse_pattern_spec(args.pattern)
    sink = open(args.output, "w") if args.output else out
    emitted = 0
    limit = args.limit

    try:
        def on_match(m) -> None:
            nonlocal emitted
            if limit is None or emitted < limit:
                print(" ".join(str(v) for v in m.mapping), file=sink)
                emitted += 1

        total = session.match(
            pattern,
            on_match,
            edge_induced=not args.vertex_induced,
        )
    finally:
        if args.output:
            sink.close()
    print(f"matches: {total}", file=out)
    if limit is not None and total > limit:
        print(f"(printed first {limit})", file=out)
    return 0


def cmd_exists(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Existence query: exit code 0 when found, 1 when absent."""
    session = MiningSession(load_dataset(args))
    pattern = parse_pattern_spec(args.pattern)
    begin = time.perf_counter()
    found = session.exists(pattern, edge_induced=not args.vertex_induced)
    elapsed = time.perf_counter() - begin
    print("found" if found else "not found", file=out)
    print(f"elapsed: {elapsed:.3f}s", file=out)
    return 0 if found else 1


def cmd_motifs(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Vertex-induced motif census of the selected size."""
    budget = _build_budget(args)
    processes = getattr(args, "processes", 1)
    if processes > 1 and budget is not None:
        raise SystemExit("error: --deadline/--max-matches need the "
                         "in-process engines; drop --processes")
    session = MiningSession(
        load_dataset(args),
        budget=budget,
        guard=getattr(args, "guard", "off"),
    )
    begin = _timed_header(out, f"{args.size}-motif census")
    engine = getattr(args, "engine", None)
    if processes > 1 and engine == "reference":
        raise SystemExit("error: --processes runs the batched worker path; "
                         "drop --engine reference or --processes")
    try:
        table = motif_census_table(
            session,
            args.size,
            engine=engine,
            num_processes=processes,
        )
    except QueryRefusedError as err:
        return _report_refused(err, out)
    except BudgetExceededError as err:
        print(f"truncated: {err.partial.reason}", file=out)
        print(f"matches before stop: {err.partial.matches}", file=out)
        _timed_footer(out, begin)
        return 0
    print(table, file=out)
    _timed_footer(out, begin)
    return 0


def cmd_cliques(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """k-clique counting / existence / listing / maximal variants."""
    session = MiningSession(load_dataset(args))
    k = args.k
    begin = time.perf_counter()
    if args.maximal:
        n = maximal_clique_count(session, k)
        print(f"maximal {k}-cliques: {n}", file=out)
    elif args.existence:
        found = clique_exists(session, k)
        print("found" if found else "not found", file=out)
        print(f"elapsed: {time.perf_counter() - begin:.3f}s", file=out)
        return 0 if found else 1
    elif args.list:
        cliques = list_cliques(session, k, limit=args.limit)
        for c in cliques:
            print(" ".join(str(v) for v in c), file=out)
        print(f"{k}-cliques listed: {len(cliques)}", file=out)
    else:
        n = clique_count(session, k)
        print(f"{k}-cliques: {n}", file=out)
    print(f"elapsed: {time.perf_counter() - begin:.3f}s", file=out)
    return 0


def cmd_fsm(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Frequent subgraph mining with MNI support."""
    graph = load_dataset(args)
    if not graph.is_labeled:
        raise SystemExit(
            "error: FSM needs a labeled graph (--dataset patents --labeled, "
            "--dataset mico, or --graph/--labels)"
        )
    session = MiningSession(
        graph,
        budget=_build_budget(args),
        guard=getattr(args, "guard", "off"),
    )
    begin = time.perf_counter()
    try:
        result = fsm_api(
            session,
            args.edges,
            args.threshold,
            engine=getattr(args, "engine", None),
        )
    except QueryRefusedError as err:
        return _report_refused(err, out)
    except BudgetExceededError as err:
        # Session-default budgets arm per query, so the failing round's
        # partial is all we can report.
        print(f"truncated: {err.partial.reason}", file=out)
        print(f"matches before stop: {err.partial.matches}", file=out)
        return 0
    elapsed = time.perf_counter() - begin
    print(
        f"frequent {args.edges}-edge patterns at support >= {args.threshold}: "
        f"{result.total_frequent()}",
        file=out,
    )
    if args.verbose:
        for pattern, support in sorted(
            result.frequent.items(), key=lambda item: -item[1]
        ):
            print(f"  support={support}  {pattern!r}", file=out)
    print(f"patterns explored: {result.patterns_explored}", file=out)
    print(f"elapsed: {elapsed:.3f}s", file=out)
    return 0


def _load_graph_file(path, labels=None):
    """Load one graph file by extension (binary formats embed labels)."""
    text = str(path)
    if text.endswith((".rgx", ".npz")):
        if labels:
            raise SystemExit(
                "error: binary graph formats embed labels; --labels "
                "applies to edge-list inputs only"
            )
        return open_graph(path)
    if labels:
        return load_labeled(path, labels)
    return load_edge_list(path)


def cmd_graph_convert(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Convert a graph between on-disk formats (extension-routed).

    The main use is producing ``.rgx`` mmap stores from text edge lists
    or ``.npz`` archives so later runs cold-start in O(header) time;
    ``--degree-order`` bakes the §5.2 ordering into the file so mining
    reloads skip the ordering pass too.
    """
    graph = _load_graph_file(args.input, getattr(args, "labels", None))
    if args.degree_order:
        graph, _ = graph.degree_ordered()
    dest = str(args.output)
    begin = time.perf_counter()
    if dest.endswith(".rgx"):
        save_mmap(graph, dest)
    elif dest.endswith(".npz"):
        save_npz(graph, dest)
    else:
        save_edge_list(graph, dest)
    elapsed = time.perf_counter() - begin
    print(
        f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges "
        f"to {dest} ({os.path.getsize(dest)} bytes)",
        file=out,
    )
    print(f"elapsed: {elapsed:.3f}s", file=out)
    return 0


def cmd_graph_info(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Print an ``.rgx`` store's header without touching the sections."""
    store = GraphStore(args.path)
    for key, value in store.info().items():
        print(f"{key}: {value}", file=out)
    return 0


def _print_approx(r: ApproxCount, out: TextIO) -> None:
    """Shared ApproxCount rendering for ``count --approx`` and ``approx``."""
    print(
        f"estimate: {r.estimate:.1f}  "
        f"({r.confidence:.0%} CI [{r.ci_low:.1f}, {r.ci_high:.1f}])",
        file=out,
    )
    target = "-" if r.requested_rel_err is None else f"{r.requested_rel_err:g}"
    print(
        f"rel err: {r.rel_err:.4g} (target {target})  "
        f"samples: {r.samples}/{r.frontier_size}  stop: {r.early_stop}",
        file=out,
    )
    if r.exact:
        print("exact: the sample budget covered the whole frontier", file=out)


def cmd_approx(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Approximate counting through the session-integrated sampling tier."""
    session = MiningSession(load_dataset(args))
    pattern = parse_pattern_spec(args.pattern)
    begin = time.perf_counter()
    r = session.count(
        pattern,
        approx=args.rel_err,
        confidence=args.confidence,
        max_samples=args.max_samples,
        seed=args.sample_seed,
        edge_induced=not args.vertex_induced,
    )
    elapsed = time.perf_counter() - begin
    _print_approx(r, out)
    print(f"elapsed: {elapsed:.3f}s", file=out)
    return 0


def cmd_serve(args: argparse.Namespace, out: TextIO = sys.stdout) -> int:
    """Run the async mining service's HTTP front until interrupted."""
    # Deferred: ``repro.service.handlers`` imports this package.
    from ..service.http import serve
    from ..service.service import ServiceConfig

    config = ServiceConfig(
        workers=args.workers,
        max_sessions=args.max_sessions,
        ttl_seconds=args.ttl,
        max_wait_ms=args.max_wait_ms,
        max_batch=args.max_batch,
        batching=not args.no_batching,
    )
    serve(args.host, args.port, config=config)
    return 0
