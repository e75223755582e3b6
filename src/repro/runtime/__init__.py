"""Concurrent runtime: scheduling, thread/process pools, aggregation."""

from .scheduler import (
    ChunkLedger,
    LeaseBoard,
    ProcessCursor,
    TaskScheduler,
    weighted_boundaries,
)
from .aggregation import AggregatorThread
from .guards import (
    CostEstimate,
    admit,
    estimate_cost,
    resolve_threshold,
)
from .planner import QueryPlan, apply_plan, plan_query, plan_workload
from .parallel import (
    FAULT_ENV,
    MAX_CHUNK_RETRIES,
    ParallelResult,
    parallel_match,
    process_count,
    process_count_many,
)
from .pool import DEFAULT_POOL_WORKERS, QueryPool
from .termination import (
    stop_after_n_matches,
    stop_when_aggregate,
    DeadlineControl,
)

__all__ = [
    "ChunkLedger",
    "LeaseBoard",
    "ProcessCursor",
    "TaskScheduler",
    "weighted_boundaries",
    "AggregatorThread",
    "CostEstimate",
    "admit",
    "estimate_cost",
    "resolve_threshold",
    "QueryPlan",
    "apply_plan",
    "plan_query",
    "plan_workload",
    "FAULT_ENV",
    "MAX_CHUNK_RETRIES",
    "ParallelResult",
    "parallel_match",
    "process_count",
    "process_count_many",
    "stop_after_n_matches",
    "stop_when_aggregate",
    "DeadlineControl",
    "DEFAULT_POOL_WORKERS",
    "QueryPool",
]
