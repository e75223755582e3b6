"""Worker-pool handoff for the async service tier.

The asyncio event loop must never run a mining walk inline — one heavy
query would freeze admission, batching timers and every other
connection.  :class:`QueryPool` is the thin bridge the service uses to
push session verbs onto worker threads: a named
:class:`~concurrent.futures.ThreadPoolExecutor` plus an awaitable
``run`` that suspends the calling coroutine until the verb finishes.

Threads (not processes) are the right default here: the batched engines
spend their time inside numpy kernels that release the GIL, the session
caches (plans, ordered graph, start lists) are shared by reference instead of
being re-derived per worker, and queries that *do* need real
process-level parallelism go through the PR-5 runtimes from inside the
job (``session.count_many(..., num_processes=N)`` hands off to
:func:`~repro.runtime.parallel.process_count_many` unchanged).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

__all__ = ["QueryPool", "DEFAULT_POOL_WORKERS"]

# Service default: enough to overlap a fused batch with solo/guarded
# stragglers without oversubscribing small hosts.  Deployments size this
# to the machine via ServiceConfig.workers.
DEFAULT_POOL_WORKERS = 2


class QueryPool:
    """A bounded thread pool that mining jobs are handed off to.

    One pool serves a whole :class:`~repro.service.MiningService`:
    batched fused walks, solo guarded/budgeted queries and census verbs
    all share its workers, so total mining concurrency is bounded by
    ``workers`` no matter how many requests are in flight.
    """

    __slots__ = ("workers", "_executor")

    def __init__(self, workers: int = DEFAULT_POOL_WORKERS):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Schedule ``fn(*args)`` on a worker; return its future."""
        return self._executor.submit(fn, *args)

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Await ``fn(*args)`` on a worker without blocking the loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, lambda: fn(*args))

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; with ``wait``, join running ones."""
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "QueryPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryPool(workers={self.workers})"
