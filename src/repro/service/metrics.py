"""Service observability: per-verb counters, latency histograms, fusion gauges.

"Serves heavy traffic" is a claim about distributions, not averages, so
the service keeps enough structure to answer the operational questions
directly from one snapshot:

* **per-verb counters** — requests, errors by exception type;
* **latency histograms** — fixed log-spaced millisecond buckets per
  verb (cheap to update under a lock, mergeable across processes, good
  enough for p50/p99 estimates without storing samples);
* **batching gauges** — how many batches flushed at which size, how
  many requests rode a fused batch vs. ran solo, how many duplicate
  patterns were deduplicated away (a fused batch of one is just a slow
  solo run, so the *fusion batch rate* is the fraction of batched
  requests that actually shared a walk with a sibling);
* **planner gauges** — how many count/match requests were planned and
  which engines their dispatch stage chose;
* **registry stats** — folded in at snapshot time from
  :meth:`~repro.service.registry.SessionRegistry.stats`.

Everything is exposed as one plain-dict :meth:`ServiceMetrics.snapshot`
— the ``stats`` verb and the HTTP ``/stats`` endpoint serialize it
as-is, and the bench asserts its fusion gauges.
"""

from __future__ import annotations

import bisect
import threading

__all__ = ["LatencyHistogram", "ServiceMetrics", "LATENCY_BUCKETS_MS"]

# Upper bounds (milliseconds) of the histogram buckets; one implicit
# overflow bucket catches everything beyond the last bound.  Log-spaced:
# interactive queries land in the front, runaway ones are still visible.
LATENCY_BUCKETS_MS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (milliseconds).

    Not thread-safe on its own; :class:`ServiceMetrics` serializes
    updates under its lock.
    """

    __slots__ = ("counts", "count", "sum_ms", "max_ms")

    def __init__(self):
        self.counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, ms: float) -> None:
        self.counts[bisect.bisect_left(LATENCY_BUCKETS_MS, ms)] += 1
        self.count += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms

    def quantile(self, q: float) -> float:
        """Upper bucket bound covering quantile ``q`` (0 when empty).

        A bucket-resolution estimate — good for dashboards and alerts;
        exact percentiles come from client-side timings (the bench).
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                if i < len(LATENCY_BUCKETS_MS):
                    return LATENCY_BUCKETS_MS[i]
                return self.max_ms
        return self.max_ms

    def snapshot(self) -> dict:
        buckets = {
            f"le_{bound:g}": count
            for bound, count in zip(LATENCY_BUCKETS_MS, self.counts)
        }
        buckets["overflow"] = self.counts[-1]
        return {
            "count": self.count,
            "sum_ms": self.sum_ms,
            "max_ms": self.max_ms,
            "p50_ms_le": self.quantile(0.50),
            "p99_ms_le": self.quantile(0.99),
            "buckets": buckets,
        }


class ServiceMetrics:
    """All service counters behind one lock, served as one snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._errors: dict[str, dict[str, int]] = {}
        self._latency: dict[str, LatencyHistogram] = {}
        # Batching gauges.
        self._batches = 0
        self._fused_batches = 0
        self._batched_requests = 0
        self._fused_requests = 0
        self._solo_requests = 0
        self._deduped_requests = 0
        self._batch_sizes: dict[int, int] = {}
        self._max_batch_size = 0
        # Planner gauges (every count/match request is planned).
        self._planned_queries = 0
        self._plan_engines: dict[str, int] = {}
        # Approximate-tier gauges: every request answered from the
        # sampling tier, and the subset that got there by planner/guard
        # downgrade rather than by asking for it.
        self._approx_engagements = 0
        self._approx_downgrades = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_request(
        self, verb: str, seconds: float, error: str | None = None
    ) -> None:
        """One finished request: latency always, error type when failed."""
        ms = seconds * 1e3
        with self._lock:
            self._requests[verb] = self._requests.get(verb, 0) + 1
            hist = self._latency.get(verb)
            if hist is None:
                hist = self._latency[verb] = LatencyHistogram()
            hist.observe(ms)
            if error is not None:
                by_type = self._errors.setdefault(verb, {})
                by_type[error] = by_type.get(error, 0) + 1

    def record_batch(self, size: int, deduped: int = 0) -> None:
        """One flushed batch of ``size`` coalesced requests.

        ``deduped`` counts requests served off a sibling's identical
        pattern (they paid no walk of their own at all).
        """
        with self._lock:
            self._batches += 1
            self._batched_requests += size
            self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1
            if size > self._max_batch_size:
                self._max_batch_size = size
            if size > 1:
                self._fused_batches += 1
                self._fused_requests += size
            self._deduped_requests += deduped

    def record_solo(self) -> None:
        """One request that bypassed batching (budgeted, disabled, ...)."""
        with self._lock:
            self._solo_requests += 1

    def record_plan(self, engine: str) -> None:
        """One planned request and the engine its dispatch stage chose."""
        with self._lock:
            self._planned_queries += 1
            self._plan_engines[engine] = self._plan_engines.get(engine, 0) + 1

    def record_approx(self, auto: bool = False) -> None:
        """One request answered by the approximate tier.

        ``auto=True`` marks a query the caller submitted as *exact* that
        the planner (latency budget) or guard (downgrade escalation)
        routed to sampling — the downgrades-to-approx gauge.
        """
        with self._lock:
            self._approx_engagements += 1
            if auto:
                self._approx_downgrades += 1

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self, registry_stats: dict | None = None) -> dict:
        """Every gauge as one JSON-ready dict (the ``stats`` payload)."""
        with self._lock:
            executed = self._batched_requests + self._solo_requests
            payload = {
                "requests": dict(self._requests),
                "errors": {v: dict(t) for v, t in self._errors.items()},
                "latency_ms": {
                    verb: hist.snapshot()
                    for verb, hist in self._latency.items()
                },
                "batching": {
                    "batches": self._batches,
                    "fused_batches": self._fused_batches,
                    "batched_requests": self._batched_requests,
                    "fused_requests": self._fused_requests,
                    "solo_requests": self._solo_requests,
                    "deduped_requests": self._deduped_requests,
                    "batch_sizes": {
                        str(size): count
                        for size, count in sorted(self._batch_sizes.items())
                    },
                    "max_batch_size": self._max_batch_size,
                    # The acceptance gauge: what fraction of executed
                    # mining requests shared a fused walk with a sibling.
                    "fusion_batch_rate": (
                        self._fused_requests / executed if executed else 0.0
                    ),
                },
                "planner": {
                    "planned_queries": self._planned_queries,
                    "engines": dict(self._plan_engines),
                },
                "approx": {
                    "engagements": self._approx_engagements,
                    "planner_downgrades": self._approx_downgrades,
                },
            }
        if registry_stats is not None:
            payload["registry"] = dict(registry_stats)
        return payload
