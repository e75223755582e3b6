"""Statistics, peak-RSS readers and the in-memory span tracer."""

from __future__ import annotations

import json
import math
import re
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

median = statistics.median


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q`` of all at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


_HWM = re.compile(r"VmHWM:\s+(\d+) kB")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    text = Path(f"/proc/{pid}/status").read_text()
    return int(_HWM.search(text).group(1)) / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS.

    Input generation builds Python edge lists far larger than anything
    the mining stack allocates; without the reset the peak would measure
    the generator.  Where the kernel refuses the write the peak simply
    keeps covering set-up as well.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


class Tracer:
    """Spans (name, start, end, parent) kept in memory until :meth:`dump`.

    A disabled tracer hands out a no-op context, so the untraced run
    executes the same statements minus the bookkeeping.  A span opened
    while another is open on the same thread becomes its child; a span
    opened on another thread names its parent explicitly.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.rep: int | None = None
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    def span(self, name: str, parent: int | None = None, **attrs):
        if not self.enabled:
            return nullcontext()
        return self._record(name, parent, attrs)

    @contextmanager
    def _record(self, name: str, parent: int | None, attrs: dict):
        stack = self._open.__dict__.setdefault("ids", [])
        if parent is None and stack:
            parent = stack[-1]
        record = {
            "name": name,
            "parent": parent,
            "workload": self.workload,
            "rep": self.rep,
            **attrs,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def current(self) -> int | None:
        """The innermost span open on this thread (the parent to hand to other threads)."""
        stack = self._open.__dict__.get("ids")
        return stack[-1] if stack else None

    def durations(self, name: str, **attrs) -> list[float]:
        """Seconds of every closed span called ``name`` whose attributes match."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        ]

    def total(self, name: str, **attrs) -> float:
        return sum(self.durations(name, **attrs))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus top-level coverage."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        layers: dict[str, dict] = {}
        for s in self.spans:
            row = layers.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - _covered(children.get(s["id"], ()), s["start"], s["end"])
        top = [(s["start"], s["end"]) for s in self.spans if s["parent"] is None]
        wall = max(e for _, e in top) - min(b for b, _ in top) if top else 0.0
        coverage = _covered(top, -math.inf, math.inf) / wall if wall else 0.0
        return {"layers": layers, "traced_wall_s": wall, "top_level_coverage": coverage}

    def dump(self, path: Path) -> dict:
        summary = self.summary()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"summary": summary, "spans": self.spans}, indent=1))
        return summary


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for begin, end in sorted(intervals):
        begin, end = max(begin, reach), min(end, hi)
        if end > begin:
            total += end - begin
            reach = end
    return total
