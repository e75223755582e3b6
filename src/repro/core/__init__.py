"""Pattern-aware matching core: plans (§4) + guided engine (§5.1)."""

from .api import (
    match,
    count,
    count_many,
    match_many,
    exists,
    match_batches,
    match_batches_many,
    aggregate,
)
from .session import (
    ExecOptions,
    MiningSession,
    MultiPatternPlan,
    as_session,
)
from .callbacks import (
    Match,
    ExplorationControl,
    Aggregator,
    MatchCallback,
    Budget,
    BudgetMeter,
)
from .candidates import (
    bounded,
    contains,
    intersect,
    intersect_many,
    difference,
    intersect_count,
)
from .engine import EngineStats, run_tasks, default_task_order
from .matching_order import OrderedCore, compute_matching_orders
from .plan import (
    ExplorationPlan,
    NonCoreStep,
    AntiVertexCheck,
    generate_plan,
)
from .symmetry import break_symmetries, conditions_hold, orbit_partition
from .vertex_cover import minimum_connected_vertex_cover, is_connected_cover

__all__ = [
    "match",
    "count",
    "count_many",
    "match_many",
    "exists",
    "match_batches",
    "match_batches_many",
    "aggregate",
    "ExecOptions",
    "MiningSession",
    "MultiPatternPlan",
    "as_session",
    "Match",
    "ExplorationControl",
    "Aggregator",
    "MatchCallback",
    "Budget",
    "BudgetMeter",
    "bounded",
    "contains",
    "intersect",
    "intersect_many",
    "difference",
    "intersect_count",
    "EngineStats",
    "run_tasks",
    "default_task_order",
    "OrderedCore",
    "compute_matching_orders",
    "ExplorationPlan",
    "NonCoreStep",
    "AntiVertexCheck",
    "generate_plan",
    "break_symmetries",
    "conditions_hold",
    "orbit_partition",
    "minimum_connected_vertex_cover",
    "is_connected_cover",
]
