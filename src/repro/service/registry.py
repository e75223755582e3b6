"""Shared-session registry: one ``MiningSession`` per graph, evicted sanely.

A service process outlives any single graph: datasets come and go, and a
box serving heavy traffic cannot let every graph it has ever touched pin
its degree ordering, derived arrays and plan cache in RAM (or its ``.rgx``
mmap descriptors in the fd table) forever.  :class:`SessionRegistry`
maps *graph keys* to shared :class:`~repro.core.session.MiningSession`
instances with two eviction axes:

* **LRU displacement** — at most ``max_sessions`` sessions stay
  resident; acquiring one past the cap evicts the least recently used.
* **TTL expiry** — a session idle for longer than ``ttl_seconds`` is
  evicted on the next registry access (lazy sweep; no reaper thread).

Keys are either filesystem paths (``.rgx`` stores open zero-copy,
``.npz``/edge lists parse — exactly what a session constructor accepts)
or *registered names* bound to in-memory graphs via :meth:`register`.
Path-loaded sessions are **owned** by the registry: eviction calls
:meth:`MiningSession.close(release_store=True) <repro.core.session.MiningSession.close>`
so mmap descriptors are released immediately.  Registered graphs belong
to the caller — eviction drops the session state but leaves the caller's
graph (and any store behind it) untouched.

Stats follow the ``cache_info()`` idiom of the session plan cache:
hits/misses/loads plus per-cause eviction counters, served as one dict
the service metrics layer folds into its snapshot.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Union

from ..core.session import MiningSession
from ..graph.graph import DataGraph

__all__ = ["SessionRegistry", "DEFAULT_MAX_SESSIONS"]

DEFAULT_MAX_SESSIONS = 8


class _Entry:
    """One resident session plus its bookkeeping."""

    __slots__ = ("session", "owns_store", "last_used", "loaded_at")

    def __init__(self, session: MiningSession, owns_store: bool, now: float):
        self.session = session
        self.owns_store = owns_store
        self.last_used = now
        self.loaded_at = now

    def close(self) -> None:
        self.session.close(release_store=self.owns_store)


class SessionRegistry:
    """LRU + TTL cache of shared mining sessions, keyed by graph.

    Thread-safe: the service's event loop resolves sessions while pool
    workers run queries on previously resolved ones, and tests drive the
    registry directly from multiple threads.  The lock guards only the
    map — graph loading happens outside it would be nicer, but loads are
    rare (one per distinct graph per residency) and keeping them inside
    makes the LRU accounting race-free, so simplicity wins.
    """

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        # Insertion order is recency order: every touch re-inserts.
        self._entries: dict[str, _Entry] = {}
        self._hits = 0
        self._misses = 0
        self._evicted_lru = 0
        self._evicted_ttl = 0
        self._evicted_explicit = 0

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve_key(self, key: str) -> str:
        """The canonical registry key for ``key``.

        Registered names resolve to themselves; anything else is treated
        as a filesystem path and normalized, so ``g.rgx`` and
        ``./g.rgx`` share one session.
        """
        with self._lock:
            if key in self._entries:
                return key
        return os.path.abspath(key)

    def get(self, key: str) -> MiningSession:
        """The shared session for ``key``, loading and evicting as needed.

        Raises ``FileNotFoundError`` for an unregistered name that is not
        a readable path (the service maps it to a structured
        ``unknown graph`` response), and whatever the graph loaders raise
        for unreadable/corrupt files.
        """
        now = self._clock()
        with self._lock:
            self._sweep_expired(now)
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._hits += 1
                entry.last_used = now
                self._entries[key] = entry  # re-insert: most recent
                return entry.session
        # Not resident under the given name: treat as a path.
        path = os.path.abspath(key)
        with self._lock:
            entry = self._entries.pop(path, None)
            if entry is not None:
                self._hits += 1
                entry.last_used = now
                self._entries[path] = entry
                return entry.session
            self._misses += 1
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"unknown graph {key!r}: not a registered name and not a "
                "readable path"
            )
        session = MiningSession(path)
        with self._lock:
            # A racing load of the same path may have landed first; keep
            # the resident one so every caller shares a single session.
            existing = self._entries.get(path)
            if existing is not None:
                existing.last_used = self._clock()
                resident = existing.session
            else:
                self._entries[path] = _Entry(session, owns_store=True, now=now)
                resident = session
                self._evict_over_capacity()
        if resident is not session:
            session.close(release_store=True)
        return resident

    def register(
        self,
        name: str,
        graph: Union[DataGraph, MiningSession],
    ) -> MiningSession:
        """Bind ``name`` to an in-memory graph (or an existing session).

        Re-registering a name always installs a **fresh** entry: the old
        session is evicted (stale plan caches from a previous graph of
        the same name must not leak into the new one) and a bare graph
        gets a brand-new session rather than the graph's shared default
        one.  The caller keeps ownership of the graph, so eviction never
        closes its backing store.
        """
        if isinstance(graph, MiningSession):
            session = graph
        elif isinstance(graph, DataGraph):
            session = MiningSession(graph)
        else:
            raise TypeError(
                f"register expects DataGraph or MiningSession, got "
                f"{type(graph).__name__}"
            )
        now = self._clock()
        with self._lock:
            old = self._entries.pop(name, None)
            if old is not None:
                self._evicted_explicit += 1
            self._entries[name] = _Entry(session, owns_store=False, now=now)
            self._evict_over_capacity()
        if old is not None and old.session is not session:
            old.close()
        return session

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def _sweep_expired(self, now: float) -> None:
        """Drop every TTL-expired entry (caller holds the lock)."""
        if self.ttl_seconds is None:
            return
        expired = [
            key
            for key, entry in self._entries.items()
            if now - entry.last_used > self.ttl_seconds
        ]
        for key in expired:
            entry = self._entries.pop(key)
            self._evicted_ttl += 1
            entry.close()

    def _evict_over_capacity(self) -> None:
        """LRU-displace past ``max_sessions`` (caller holds the lock)."""
        while len(self._entries) > self.max_sessions:
            oldest_key = next(iter(self._entries))
            entry = self._entries.pop(oldest_key)
            self._evicted_lru += 1
            entry.close()

    def evict(self, key: str) -> bool:
        """Explicitly drop one entry; returns whether it was resident."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._evicted_explicit += 1
        entry.close()
        return True

    def clear(self) -> None:
        """Evict everything (service shutdown)."""
        with self._lock:
            entries = list(self._entries.values())
            self._evicted_explicit += len(entries)
            self._entries.clear()
        for entry in entries:
            entry.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        """``cache_info()``-style counters for the metrics snapshot."""
        with self._lock:
            return {
                "sessions": len(self._entries),
                "max_sessions": self.max_sessions,
                "ttl_seconds": self.ttl_seconds,
                "hits": self._hits,
                "misses": self._misses,
                "evictions_lru": self._evicted_lru,
                "evictions_ttl": self._evicted_ttl,
                "evictions_explicit": self._evicted_explicit,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"SessionRegistry(sessions={s['sessions']}/{s['max_sessions']}, "
            f"hits={s['hits']}, misses={s['misses']})"
        )
