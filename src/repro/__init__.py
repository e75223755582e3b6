"""repro — a Python reproduction of Peregrine (EuroSys 2020).

Peregrine is a pattern-aware graph mining system: graph patterns are
first-class constructs, pattern analysis yields an exploration plan
(symmetry breaking + core decomposition + matching orders), and the plan
guides exploration so that only subgraphs matching the pattern are ever
generated — no per-match isomorphism or canonicality checks.

Quick start::

    from repro import graph, pattern, core, mining

    g = graph.load_edge_list("my.graph")
    session = core.MiningSession(g)   # pins g: ordering/CSR/plans cached
    triangles = session.count(pattern.generate_clique(3))
    motifs = mining.motif_counts(session, size=4)

    core.count(g, pattern.generate_clique(3))  # legacy one-shot shim

Packages
--------
``repro.graph``     data-graph substrate, I/O, synthetic datasets
``repro.pattern``   Pattern class, anti-edges/anti-vertices, generators
``repro.core``      exploration plans + the pattern-aware engine
``repro.mining``    motif counting, FSM, cliques, existence queries
``repro.runtime``   concurrent runtime (threads, processes, aggregation)
``repro.service``   async query service (sessions, fused batching, HTTP)
``repro.baselines`` pattern-unaware systems used in the evaluation
``repro.profiling`` counters, memory accounting, stage timers
``repro.reporting`` ASCII tables / bar charts used by benches and the CLI
"""

# Defined before the subpackage imports: repro.service pulls in the CLI
# pattern-spec grammar, and repro.cli reads the version back from here.
__version__ = "1.0.0"

from . import graph, pattern, core, mining, runtime, baselines, profiling, reporting
from . import service
from .errors import (
    ReproError,
    GraphError,
    GraphFormatError,
    PatternError,
    PatternFormatError,
    PlanError,
    MatchingError,
    BudgetExceeded,
    MemoryBudgetExceeded,
    PartialResult,
    BudgetExceededError,
    QueryRefusedError,
    QueryCancelledError,
    WorkerCrashError,
)
from .core import Budget

__all__ = [
    "graph",
    "reporting",
    "pattern",
    "core",
    "mining",
    "runtime",
    "service",
    "baselines",
    "profiling",
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "PatternError",
    "PatternFormatError",
    "PlanError",
    "MatchingError",
    "BudgetExceeded",
    "MemoryBudgetExceeded",
    "PartialResult",
    "BudgetExceededError",
    "QueryRefusedError",
    "QueryCancelledError",
    "WorkerCrashError",
    "Budget",
    "__version__",
]
