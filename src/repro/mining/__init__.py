"""Mining applications built on the pattern-aware core (Figure 4)."""

from .support import Bitset, Domain
from .motifs import motif_counts, labeled_motif_counts, motif_census_table
from .cliques import (
    clique_count,
    clique_exists,
    list_cliques,
    maximal_clique_pattern,
    maximal_clique_count,
)
from .fsm import FSMResult, fsm
from .existence import (
    clique_existence,
    GccBoundResult,
    gcc_exceeds_bound,
    global_clustering_coefficient,
)
from .sampling import ApproxCount, approx_count, approx_count_many
from .matching import (
    count_pattern,
    enumerate_matches,
    match_and_write,
    count_unique_subgraphs,
)

__all__ = [
    "ApproxCount",
    "approx_count",
    "approx_count_many",
    "Bitset",
    "Domain",
    "motif_counts",
    "labeled_motif_counts",
    "motif_census_table",
    "clique_count",
    "clique_exists",
    "list_cliques",
    "maximal_clique_pattern",
    "maximal_clique_count",
    "FSMResult",
    "fsm",
    "clique_existence",
    "GccBoundResult",
    "gcc_exceeds_bound",
    "global_clustering_coefficient",
    "count_pattern",
    "enumerate_matches",
    "match_and_write",
    "count_unique_subgraphs",
]
