"""Dynamic task scheduling (§5.2, §5.5): the shared chunking layer.

A task is the data vertex an exploration starts from.  Tasks are handed
out hub-first (highest-degree vertices lead the frontier, so the
heaviest tasks start early and stragglers are short) in *chunks*, and a
chunk's extent is **degree-weighted**: boundaries close once a chunk's
cumulative weight reaches a cap, so a chunk holding a mega-hub carries
few starts while leaf-only chunks carry many.  That one rule — the same
closing rule :func:`repro.core.accel.bounded_slices` applies to frontier
memory — keeps per-chunk work roughly even regardless of degree skew.

Both concurrent runtimes consume this layer:

* :func:`repro.runtime.parallel.parallel_match` worker *threads* pull
  chunks from a :class:`TaskScheduler` (a cursor over a
  :class:`ChunkLedger` guarded by a ``threading.Lock``);
* :func:`repro.runtime.parallel.process_count` /
  :func:`~repro.runtime.parallel.process_count_many` worker *processes*
  share a :class:`ProcessCursor` (a ``multiprocessing.Value`` counter)
  over the same :class:`ChunkLedger` — the ledger is immutable and
  reaches workers fork-inherited or pickled once, so only the cursor is
  ever contended.

This is the only work placement.  A fixed stride partition
(``order[i::P]`` per worker) is not offered; ``benchmarks/bench_parallel.py``
measures it as the ablation arm.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from ..core.accel import bounded_slices

__all__ = [
    "ChunkLedger",
    "LeaseBoard",
    "ProcessCursor",
    "TaskScheduler",
    "CHUNKS_PER_WORKER",
    "weighted_boundaries",
]

# Chunk sizing: target this many chunks per worker.  Enough
# granularity that one straggler chunk
# costs ~1/8 of a worker's share, few enough that per-chunk dispatch
# overhead (one engine call, one cursor claim) stays negligible.
CHUNKS_PER_WORKER = 8


def weighted_boundaries(weights: Sequence[float], cap: float) -> list[int]:
    """Chunk boundaries over ``weights`` whose sums stay near ``cap``.

    Returns ``[0, b1, ..., len(weights)]``: chunk ``i`` spans
    ``weights[b_i:b_{i+1}]``.  The boundaries are those of
    :func:`repro.core.accel.bounded_slices` — a chunk closes as soon as
    its cumulative weight reaches ``cap`` and a lone over-cap element
    forms a chunk of its own — so scheduling chunks and engine-internal
    chunks are cut by one rule, not two that agree.
    """
    return [0] + [sl.stop for sl in bounded_slices(np.asarray(weights), cap)]


class ChunkLedger:
    """An immutable chunk table: a task order plus chunk boundaries.

    The ledger is the *shared* half of a work queue: every worker —
    thread or process — holds the same ledger and claims chunk *indices*
    from a cursor, then reads its chunk locally.  Nothing in the ledger
    is ever mutated, so it is safe fork-inherited, pickled to spawn
    workers, or referenced from any number of threads.
    """

    __slots__ = ("order", "boundaries")

    def __init__(self, order: Sequence[int], boundaries: Sequence[int]):
        self.order = order
        self.boundaries = boundaries

    @classmethod
    def build(
        cls,
        order: Sequence[int],
        weights: Sequence[float],
        num_workers: int = 1,
    ) -> "ChunkLedger":
        """Chunk ``order`` by weight (degree).

        ``weights`` aligns one-to-one with ``order`` (typically
        ``degree + 1`` per start vertex).  The weight cap targets
        :data:`CHUNKS_PER_WORKER` chunks per worker (and never falls
        below the mean weight), so on skewed frontiers a hub chunk
        carries fewer starts.
        """
        n = len(order)
        if n == 0:
            return cls(order, [0])
        weights = np.asarray(weights)
        total = float(weights.sum())
        cap = max(
            max(total / n, 1e-12),
            total / (max(1, num_workers) * CHUNKS_PER_WORKER),
        )
        return cls(order, weighted_boundaries(weights, cap))

    def __len__(self) -> int:
        return len(self.boundaries) - 1

    @property
    def num_tasks(self) -> int:
        return self.boundaries[-1]

    def chunk(self, index: int) -> Sequence[int]:
        """The ``index``-th chunk of the task order."""
        return self.order[self.boundaries[index]: self.boundaries[index + 1]]


class ProcessCursor:
    """A chunk-index cursor shared across a process pool.

    Wraps a ``multiprocessing.Value`` counter (with its built-in lock)
    created from the pool's own context, so it reaches workers through
    fork inheritance or spawn initargs alike.  Workers call
    :meth:`claim` until it runs past the ledger — the entire dynamic
    scheduling protocol is this one fetch-and-increment.
    """

    __slots__ = ("_value",)

    def __init__(self, ctx):
        self._value = ctx.Value("l", 0)

    def claim(self) -> int:
        """Atomically claim and return the next chunk index."""
        with self._value.get_lock():
            index = self._value.value
            self._value.value = index + 1
        return index


class LeaseBoard:
    """Shared per-chunk lease and result state for crash-tolerant drains.

    The ledger says *what* the chunks are; the board says *how far* each
    chunk got.  Every chunk has one status slot (``0`` pending,
    ``worker_id + 1`` leased, ``-1`` done) and one or more count slots
    (one per fused-group member for multi-pattern runs, selected by
    ``slot_offsets``).  Workers lease a chunk *before* running it and
    write its counts *before* marking it done — both under the board's
    lock — so a worker that dies at any point leaves the chunk either
    untouched or leased-but-not-done, and the parent can requeue exactly
    the chunks whose results never landed.  A chunk's counts are written
    at most once (write-then-mark-done is atomic under the lock), so a
    requeued chunk can never be double-counted.

    Both arrays are ``multiprocessing`` shared ctypes from the pool's own
    context, so the board reaches workers fork-inherited or pickled into
    spawn args alike.
    """

    DONE = -1
    PENDING = 0

    __slots__ = ("_status", "_counts", "_offsets")

    def __init__(self, ctx, num_chunks: int, slot_offsets: Sequence[int] | None = None):
        if slot_offsets is None:
            slot_offsets = list(range(num_chunks + 1))
        if len(slot_offsets) != num_chunks + 1:
            raise ValueError(
                f"slot_offsets must have {num_chunks + 1} entries, "
                f"got {len(slot_offsets)}"
            )
        self._offsets = list(slot_offsets)
        self._status = ctx.Array("l", max(1, num_chunks))
        self._counts = ctx.Array("l", max(1, self._offsets[-1]))

    def lease(self, index: int, worker_id: int) -> None:
        """Record that ``worker_id`` is about to run chunk ``index``."""
        with self._status.get_lock():
            self._status[index] = worker_id + 1

    def complete(self, index: int, values: Sequence[int]) -> None:
        """Land chunk ``index``'s counts and mark it done (atomically)."""
        lo = self._offsets[index]
        hi = self._offsets[index + 1]
        if len(values) != hi - lo:
            raise ValueError(
                f"chunk {index} has {hi - lo} count slots, "
                f"got {len(values)} values"
            )
        with self._status.get_lock():
            for k, value in enumerate(values):
                self._counts[lo + k] = int(value)
            self._status[index] = self.DONE

    def is_done(self, index: int) -> bool:
        return self._status[index] == self.DONE

    def pending(self, indices: Sequence[int]) -> list[int]:
        """The subset of ``indices`` whose results never landed."""
        with self._status.get_lock():
            return [i for i in indices if self._status[i] != self.DONE]

    def done_indices(self, num_chunks: int) -> list[int]:
        with self._status.get_lock():
            return [i for i in range(num_chunks) if self._status[i] == self.DONE]

    def values(self, index: int) -> list[int]:
        """The landed counts for a done chunk."""
        return list(self._counts[self._offsets[index]: self._offsets[index + 1]])


class TaskScheduler:
    """Lock-guarded chunk cursor over a :class:`ChunkLedger` (threads).

    The thread-side face of the shared layer, as :class:`ProcessCursor`
    is the process-side one: the ledger says what the chunks are, the
    scheduler hands each out exactly once.
    """

    __slots__ = ("ledger", "_next", "_lock")

    def __init__(self, ledger: ChunkLedger):
        self.ledger = ledger
        self._next = 0
        self._lock = threading.Lock()

    def next_chunk(self) -> Sequence[int]:
        """Claim the next chunk of start vertices; empty when exhausted."""
        with self._lock:
            index = self._next
            if index >= len(self.ledger):
                return ()
            self._next = index + 1
        return self.ledger.chunk(index)
