"""Compressed bitmaps for MNI domains (§5.5).

Peregrine stores FSM domains as vectors of compressed *Roaring* bitmaps
[Chambi et al. 2016] because they are far more memory-efficient than dense
bitmaps on the sparse, clustered vertex-id sets that domains hold.  This
package reimplements the roaring design in pure Python:

* the 32-bit key space is split into 2^16 *chunks* by the high 16 bits;
* each chunk holds its low 16 bits in one of three container kinds —
  a sorted **array** (sparse), a dense **bitmap** (int-backed), or a
  **run**-length list (long contiguous ranges);
* containers convert between kinds automatically at the same cardinality
  thresholds the reference implementation uses.

:class:`RoaringBitmap` exposes the same interface as
:class:`repro.mining.support.Bitset` (add / contains / or / and / len /
``memory_bytes``) so FSM's :class:`~repro.mining.support.Domain` can be
backed by either; ``bench_ablations.py`` compares the two backends on the
Fig-13 FSM memory workload.

The same bitmaps compile a graph's hub rows into the batched engine's
packed membership index (:class:`HubMembershipIndex`, built lazily by
:meth:`repro.graph.graph.DataGraph.hub_index`).
"""

from .containers import (
    ARRAY_MAX,
    ArrayContainer,
    BitmapContainer,
    RunContainer,
    container_from_values,
)
from .roaring import HubMembershipIndex, RoaringBitmap, hub_degree_threshold

__all__ = [
    "ARRAY_MAX",
    "ArrayContainer",
    "BitmapContainer",
    "RunContainer",
    "container_from_values",
    "RoaringBitmap",
    "HubMembershipIndex",
    "hub_degree_threshold",
]
