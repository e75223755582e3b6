"""Session-centric query surface: pinned graph state, one options path.

Peregrine's headline contribution is a *declarative, pattern-aware API*
(§3, Fig 4): programs are written against ``match``/``count`` verbs and
aggregators while the system owns planning and execution.  A
:class:`MiningSession` is that API with the per-graph state made
explicit: it pins one :class:`~repro.graph.graph.DataGraph` and amortizes
everything derivable from it across queries —

* the degree-ordered copy and its id translation (§5.2), computed once —
  the graph every engine runs on, whose degrees, adjacency keys and hub
  index are built on the first vectorized run and cached on it;
* exploration plans (§4), cached per ``(pattern, edge_induced,
  symmetry_breaking)`` — motif censuses, FSM rounds and repeated service
  queries re-plan nothing;
* hub-first, label-filtered level-0 frontiers (the G-Miner §6.4
  pruning), cached per pinned-label set.

Execution knobs live in one frozen :class:`ExecOptions` value with a
single resolution path: session defaults, overridden per call.  The
session exposes the full verb set — :meth:`MiningSession.match`,
:meth:`~MiningSession.count`, :meth:`~MiningSession.count_many`,
:meth:`~MiningSession.match_many`,
:meth:`~MiningSession.match_batches_many`,
:meth:`~MiningSession.exists`, :meth:`~MiningSession.match_batches` and
:meth:`~MiningSession.aggregate` (the paper's map/reduce aggregator
idiom, §5.4).  Multi-pattern verbs compile into a
:class:`MultiPatternPlan`: compatible patterns fuse onto one shared
frontier walk, with count-only vertex-induced censuses demultiplexed off
the shared non-induced basis (:mod:`repro.core.multipattern`).  The
module-level functions in :mod:`repro.core.api` are one-shot shims over
the per-graph shared session (:meth:`MiningSession.for_graph`), so
legacy programs transparently get the same caches.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from numbers import Integral
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from ..errors import BudgetExceededError, MatchingError, PartialResult
from ..graph.binary_io import GraphStore, open_graph
from ..graph.graph import DataGraph
from ..pattern.pattern import Pattern
from . import accel as _accel
from .callbacks import Aggregator, Budget, ExplorationControl, Match, Stop
from .engine import EngineStats, run_tasks
from .multipattern import CensusTransform, census_eligible, census_transform
from .plan import ExplorationPlan, generate_plan

__all__ = [
    "ExecOptions",
    "MiningSession",
    "MultiPatternPlan",
    "as_session",
]

# Enumerated option values; ``ExecOptions.merged`` is the one place they
# (and the numeric ranges) are checked, for every verb alike.
_ENGINE_CHOICES = ("auto", "accel-batch", "reference")
_ON_BUDGET_CHOICES = ("raise", "partial")
_GUARD_CHOICES = ("off", "refuse", "downgrade")

# Option groups for ``ExecOptions.hooks``: the reference-engine
# instruments (they pin the interpreter), and everything that observes
# individual matches or partial progress (such runs can neither be
# answered by the sampling tier nor own their frontier).
INSTRUMENTS = ("stats", "timer")
OBSERVERS = INSTRUMENTS + ("control", "budget", "start_vertices")


# What a session accepts as its graph: the graph itself, an opened .rgx
# GraphStore, or a filesystem path routed through open_graph.
GraphSource = Union[DataGraph, str, os.PathLike, GraphStore]


def _coerce_graph(source) -> DataGraph:
    """Resolve a session graph source to a :class:`DataGraph`.

    Accepts a graph directly, a filesystem path (``str``/``os.PathLike``
    — ``.rgx`` stores open zero-copy via
    :func:`~repro.graph.binary_io.open_graph`), or an already-opened
    :class:`~repro.graph.binary_io.GraphStore`.
    """
    if isinstance(source, DataGraph):
        return source
    if isinstance(source, (str, os.PathLike)):
        return open_graph(source)
    if isinstance(source, GraphStore):
        return source.graph()
    raise TypeError(
        "expected DataGraph, GraphStore or a graph path, got "
        f"{type(source).__name__}"
    )


@dataclass(frozen=True)
class MultiPatternPlan:
    """A staged workload *compiled* for the batched executor.

    The one compile step between the dispatch stage and the executor:
    the in-process verbs (a lone pattern is a group of one), thread
    chunks and sampled rounds loop over it, and the process runtime
    ships it (immutable, picklable) to its workers.

    ``plans`` holds every member's exploration plan in reference order
    (results always demultiplex back to it).  Members are *compatible*
    when they share a level-0 frontier: ``group_keys[g]`` is group
    ``g``'s :meth:`MiningSession._frontier_key` — so unlabeled censuses
    and FSM structural rounds collapse into one group while label-pinned
    patterns group per distinct label set.  ``groups`` lists every
    group's member indices; together they cover every index once.

    ``members[g]`` are the plans group ``g`` actually counts: those of
    its ``direct[g]`` indices, then the anti-edge-free basis plans of
    its **census tier** — ``census[g]`` pairs each member index served
    off the basis with its canonical code, and :meth:`demux` inverts
    the basis counts through ``transforms[g]``
    (:mod:`repro.core.multipattern`).
    """

    plans: tuple[ExplorationPlan, ...]
    groups: tuple[tuple[int, ...], ...]
    group_keys: tuple[frozenset | None, ...]
    members: tuple[tuple[ExplorationPlan, ...], ...]
    direct: tuple[tuple[int, ...], ...]
    census: tuple[tuple[tuple[int, tuple], ...], ...]
    transforms: tuple[CensusTransform | None, ...]

    @classmethod
    def build(
        cls,
        session: "MiningSession",
        patterns: Sequence[Pattern],
        plans: Sequence[ExplorationPlan],
        opts: "ExecOptions",
        consumers: Mapping[int, tuple] | None = None,
    ) -> "MultiPatternPlan":
        """Compile a staged ``(patterns, plans, opts)`` workload.

        ``consumers`` maps the members that stream their matches to
        their ``(on_match, on_batch)`` pair (see :meth:`run_group`).
        The census tier has one rule: a group's count-only,
        census-eligible members ride the shared non-induced basis when
        the run is vertex-induced and symmetry-broken, the frontier is
        unpinned, at least two members qualify (below that the basis
        cannot amortize), every member runs its own plan over its whole
        frontier (no ``plan``/``start_vertices`` override) and nothing
        can stop the run early (no ``control`` or ``budget`` to arm its
        :class:`~repro.core.callbacks.Stop` token from) — a stopped,
        tripped or cancelled run's basis counts would invert into
        garbage, so such runs count every member directly (still one
        shared frontier walk).
        """
        from ..pattern.canonical import canonical_permutation

        consumers = consumers or {}
        by_key: dict[frozenset | None, list[int]] = {}
        for idx, plan in enumerate(plans):
            key = session._frontier_key(plan, opts.label_index)
            by_key.setdefault(key, []).append(idx)
        census_run = (
            not opts.edge_induced
            and opts.symmetry_breaking
            and not opts.hooks("control", "budget", "plan", "start_vertices")
        )
        groups, keys, members, direct, census, transforms = ([] for _ in range(6))
        for key, group in by_key.items():
            eligible = [
                idx for idx in group
                if idx not in consumers and census_eligible(patterns[idx])
            ] if census_run and key is None else []
            if len(eligible) < 2:
                eligible = []
            own = [idx for idx in group if idx not in eligible]
            counted = [plans[idx] for idx in own]
            codes = [canonical_permutation(patterns[idx])[0] for idx in eligible]
            transform = None
            if eligible:
                # The transform depends only on the *set* of canonical
                # codes, so the session caches it under that key.
                cache_key = tuple(sorted(set(codes)))
                transform = session._census.get(cache_key)
                if transform is None:
                    transform = _cache_put(
                        session._census, cache_key,
                        census_transform([patterns[idx] for idx in eligible]),
                    )
                counted += [
                    session._cached_plan(basis_pattern, True, True)
                    for basis_pattern in transform.basis
                ]
            groups.append(tuple(group))
            keys.append(key)
            members.append(tuple(counted))
            direct.append(tuple(own))
            census.append(tuple(zip(eligible, codes)))
            transforms.append(transform)
        return cls(
            tuple(plans), tuple(groups), tuple(keys), tuple(members),
            tuple(direct), tuple(census), tuple(transforms),
        )

    def run_group(
        self, g: int, graph: DataGraph, starts, consumers: Mapping[int, tuple] | None = None,
        chunk: int | None = None, stop: Stop | None = None,
    ) -> list[int]:
        """The batched executor: group ``g`` over ``starts``.

        Whoever drives — the whole frontier in process, a thread chunk,
        a sampled round, a worker's leased chunk — hands over the
        degree-ordered ``graph`` and start vertices in its ids, and gets
        raw per-member counts back, aligned with ``members[g]``; they, or
        their sums over every chunk of a frontier, go to :meth:`demux`.
        ``consumers[i]`` is member ``i``'s ``(on_match, on_batch)`` pair
        (engine ids); members without one are counted, not enumerated.
        ``stop`` is the run's :class:`~repro.core.callbacks.Stop` token.
        """
        direct, consumers = self.direct[g], consumers or {}
        fused = [
            (plan, *consumers.get(idx, (None, None)))
            for plan, idx in zip(self.members[g], direct)
        ] + [(plan, None, None) for plan in self.members[g][len(direct):]]
        return _accel.fused_run(graph, fused, starts, chunk, stop)

    def demux(self, g: int, counts: Sequence[int]) -> dict[int, int]:
        """Group ``g``'s raw member counts as ``{member index: total}``.

        Census-tier members are solved from the basis counts, which must
        be *complete* over the starts they describe (inversion is linear:
        a sampled round's counts and sums over all chunks qualify, a
        stopped run's do not).
        """
        direct = self.direct[g]
        totals = dict(zip(direct, counts))
        if self.transforms[g] is not None:
            induced = self.transforms[g].induced_counts({
                code: counts[len(direct) + pos]
                for pos, (code, _) in enumerate(self.transforms[g].order)
            })
            totals.update((idx, induced[code]) for idx, code in self.census[g])
        return totals


@dataclass(frozen=True)
class ExecOptions:
    """Every execution knob of a matching run, in one frozen value.

    A session holds one ``ExecOptions`` as its defaults; every verb
    accepts the same field names as keyword overrides and resolves them
    through :meth:`merged` — the single resolution *and validation*
    path.  How a query runs is decided by one stage
    (:meth:`MiningSession._stage`: probe → plan); the knobs
    below either describe the query or *pin* one of the stage's choices
    — a pinned value always wins over the plan.

    ``edge_induced`` / ``symmetry_breaking`` / ``label_index``
        matching semantics (Theorem 3.1; PRG-U ablation) and the
        label-filtered start pruning (§6.4).
    ``engine`` / ``frontier_chunk``
        pins.  ``engine="auto"`` and ``frontier_chunk=None`` let the
        plan choose: the engine from the pins and hooks (stats/timer plan
        the interpreter, everything else the batched engine), the batched
        engine's per-dispatch frontier cap from the predicted partial
        volume.
    ``start_vertices`` / ``plan``
        explicit task seeds (caller vertex ids, each in ``[0, n)``) and
        a precomputed
        :class:`~repro.core.plan.ExplorationPlan` (bypassing the session
        plan cache); per-call only.
    ``control`` / ``stats`` / ``timer``
        early termination (§5.3) and profiling hooks (Fig 1 / Fig 11);
        ``stats``/``timer`` are interpreter instruments and pin it.
    ``budget`` / ``on_budget``
        a frozen :class:`~repro.core.callbacks.Budget` (deadline, match /
        frontier-row / expanded-partial caps) polled cooperatively by
        every engine; exhaustion raises
        :class:`~repro.errors.BudgetExceededError` carrying the partial,
        or returns it as a :class:`~repro.errors.PartialResult` under
        ``on_budget="partial"``.
    ``guard``
        admission on the shared probe: ``"refuse"`` raises
        :class:`~repro.errors.QueryRefusedError` for predicted-explosive
        queries, ``"downgrade"`` tightens ``frontier_chunk``, caps
        workers and escalates hopeless count-only queries to the
        sampling tier (:func:`repro.runtime.planner.plan_workload`);
        ``"off"`` (default) admits everything.
    ``approx`` / ``confidence`` / ``max_samples`` / ``seed``
        the sampling tier (:mod:`repro.mining.sampling`):
        ``approx=rel_err`` makes the count-only verbs return
        :class:`~repro.mining.sampling.ApproxCount` estimates whose
        ``confidence`` interval is grown to within ``rel_err`` or until
        ``max_samples`` starts were drawn.
    ``latency_budget``
        seconds of predicted exact work the caller will pay; a
        count-only query whose probe predicts more routes to the
        sampling tier at
        :data:`repro.runtime.planner.AUTO_APPROX_REL_ERR`.
    """

    edge_induced: bool = True
    symmetry_breaking: bool = True
    engine: str = "auto"
    frontier_chunk: int | None = None
    label_index: bool = True
    start_vertices: Iterable[int] | None = None
    control: ExplorationControl | None = None
    stats: EngineStats | None = None
    timer: Any = None
    plan: ExplorationPlan | None = None
    budget: Budget | None = None
    on_budget: str = "raise"
    guard: str = "off"
    approx: float | None = None
    confidence: float = 0.95
    max_samples: int | None = None
    latency_budget: float | None = None
    seed: int | None = None

    def merged(self, overrides: Mapping[str, Any]) -> "ExecOptions":
        """Resolve per-call ``overrides`` against these defaults.

        Unknown names raise ``TypeError`` with the valid field list, so a
        typo'd knob fails loudly instead of being silently dropped; bad
        *values* raise ``ValueError`` here and nowhere else.  A ``None``
        override means "inherit the default" — session-consumer wrappers
        (mining entry points, the runtimes) forward their parameters
        unconditionally and ``None`` is their not-specified value.
        """
        resolved = self
        if overrides:
            unknown = [k for k in overrides if k not in _OPTION_FIELDS]
            if unknown:
                raise TypeError(
                    f"unknown execution option(s) {sorted(unknown)}; "
                    f"valid options: {sorted(_OPTION_FIELDS)}"
                )
            changes = {k: v for k, v in overrides.items() if v is not None}
            if changes:
                resolved = dataclasses.replace(self, **changes)
        resolved._validate()
        return resolved

    def _validate(self) -> None:
        for name, choices in (
            ("engine", _ENGINE_CHOICES),
            ("guard", _GUARD_CHOICES),
            ("on_budget", _ON_BUDGET_CHOICES),
        ):
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name} must be one of {choices}, "
                    f"got {getattr(self, name)!r}"
                )
        for name in ("approx", "confidence"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value!r}")
        for name in ("frontier_chunk", "max_samples", "seed"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, Integral)
            ):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("max_samples", "latency_budget", "frontier_chunk"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.plan is not None and not isinstance(self.plan, ExplorationPlan):
            raise ValueError(
                f"plan must be an ExplorationPlan, got {self.plan!r}"
            )

    def hooks(self, *names: str) -> list[str]:
        """Which of the ``names``d options are set (not ``None``).

        The one "is this run free of X?" test: the planner asks it of
        :data:`INSTRUMENTS`, the sampling tier of :data:`OBSERVERS`,
        the fused, thread and process paths of the knobs they cannot
        honour.
        """
        return [name for name in names if getattr(self, name) is not None]


_OPTION_FIELDS = frozenset(f.name for f in dataclasses.fields(ExecOptions))

# Knobs that only make sense for a single query, not as session defaults.
_PER_CALL_ONLY = ("plan", "start_vertices")

# Cached plans are small but a long-lived service graph can see an
# unbounded stream of ad-hoc patterns; cap the cache and evict FIFO
# (insertion order) so memory stays bounded without an eviction policy
# knob.  Frontiers, probe estimates and census transforms share the cap.
PLAN_CACHE_LIMIT = 1024


def _cache_put(cache: dict, key, value):
    """Insert ``value`` into a FIFO cache bounded by :data:`PLAN_CACHE_LIMIT`.

    The one insert of every session cache.  Threads sharing a session
    (the service pool runs several on one registry session) may insert
    and evict at once, so the eviction neither assumes the oldest key is
    still there nor that the cache kept its size while it looked.
    """
    cache[key] = value
    while len(cache) > PLAN_CACHE_LIMIT:
        try:
            oldest = next(iter(cache))
        except StopIteration:  # emptied by a concurrent clear
            break
        except RuntimeError:  # resized by another thread: look again
            continue
        cache.pop(oldest, None)
    return value


# Rows the interpreter buffers before handing ``match_batches`` consumers
# an array (the batched engine emits its own frontier blocks).
INTERPRETER_BATCH_ROWS = 4096


class StagedQuery(NamedTuple):
    """A workload after :meth:`MiningSession._stage` — what every driver
    executes.  A single-pattern query is the workload of one.

    ``patterns`` and their exploration ``plans`` (aligned); ``opts`` with
    the plan's choices folded in (``engine`` is concrete: the batched
    engine every member runs on, or the interpreter); the
    :class:`~repro.runtime.planner.QueryPlan` used; and ``samplable`` —
    whether the sampling tier may answer (nothing consumes individual
    matches or observes partial progress).
    """

    patterns: Sequence[Pattern]
    plans: Sequence[ExplorationPlan]
    opts: "ExecOptions"
    query_plan: Any
    samplable: bool


class MiningSession:
    """All of Peregrine's verbs over one pinned data graph.

    Construction is cheap — every derived structure (degree ordering,
    plans, start lists) is built lazily on first use and cached
    for the session's lifetime.  Graphs are immutable, so nothing a
    session caches can go stale.

    Parameters
    ----------
    graph:
        the data graph every query of this session runs against — a
        :class:`DataGraph`, an opened
        :class:`~repro.graph.binary_io.GraphStore`, or a filesystem path
        (``.rgx`` stores open zero-copy; ``.npz`` and edge lists parse).
    defaults:
        an :class:`ExecOptions` to use as the session defaults, or
        ``None`` for the standard defaults.
    **options:
        alternative to ``defaults``: individual ``ExecOptions`` field
        overrides (``MiningSession(g, engine="reference")``).

    Example
    -------
    >>> s = MiningSession(graph)
    >>> s.count(generate_clique(3))
    >>> s.count_many(generate_all_vertex_induced(4), edge_induced=False)
    >>> s.exists(generate_clique(5))
    """

    __slots__ = (
        "graph",
        "defaults",
        "_ordered",
        "_translation",
        "_new_of_old",
        "_plans",
        "_starts",
        "_census",
        "_guard_cache",
        "last_query_plan",
        "plan_cache_hits",
        "plan_cache_misses",
    )

    def __init__(
        self,
        graph: GraphSource,
        defaults: ExecOptions | None = None,
        **options,
    ):
        if defaults is not None and options:
            raise TypeError("pass defaults= or keyword options, not both")
        base = (
            defaults
            if defaults is not None
            else ExecOptions().merged(options)
        )
        for name in _PER_CALL_ONLY:
            if getattr(base, name) is not None:
                raise ValueError(
                    f"{name!r} is a per-call option, not a session default"
                )
        self.graph = _coerce_graph(graph)
        self.defaults = base
        self._ordered: DataGraph | None = None
        self._translation = None
        self._new_of_old = None
        self._plans: dict[tuple, ExplorationPlan] = {}
        self._starts: dict[frozenset | None, Any] = {}
        self._census: dict[tuple, CensusTransform] = {}
        self._guard_cache: dict[tuple, Any] = {}
        # The most recent QueryPlan the stage chose (introspection only:
        # concurrent queries on one session overwrite each other).
        self.last_query_plan = None
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    @classmethod
    def for_graph(cls, graph: GraphSource) -> "MiningSession":
        """The graph's shared default session (created on first use).

        This is what the legacy :mod:`repro.core.api` shims run on, so
        plain ``count(graph, p)`` calls share one plan cache per graph.
        The shared session always carries pristine defaults; shims pass
        every knob explicitly.  Paths and
        :class:`~repro.graph.binary_io.GraphStore` instances are accepted
        too; the shared session then lives on the loaded graph (and on
        the store's cached graph, so repeated ``for_graph(store)`` calls
        reuse one session).
        """
        graph = _coerce_graph(graph)
        session = graph._session_cache
        if session is None:
            session = cls(graph)
            graph._session_cache = session
        return session

    # ------------------------------------------------------------------
    # Cached per-graph state
    # ------------------------------------------------------------------

    @property
    def ordered(self) -> DataGraph:
        """The degree-ordered copy of the pinned graph (§5.2), cached."""
        if self._ordered is None:
            ordered, old_of_new = self.graph.degree_ordered()
            # Publish the translation before the ordered graph: a
            # concurrent first use observing _ordered set may then rely
            # on _translation being set too (no lock on the lazy init;
            # degree_ordered itself is idempotent and graph-cached).
            self._translation = old_of_new
            self._ordered = ordered
        return self._ordered

    @property
    def translation(self) -> np.ndarray:
        """``old_of_new`` int64 id map from ordered ids back to caller ids."""
        if self._translation is None:
            self.ordered
        return self._translation

    def _ordered_seeds(self, seeds: Iterable[int]) -> np.ndarray:
        """Caller-id ``start_vertices`` as ordered ids, each range-checked.

        Raises ``ValueError`` naming the first seed that is not an
        integer vertex id in ``[0, n)``.  The inverse of
        :attr:`translation` is built on first use and cached beside it.
        """
        n = self.graph.num_vertices
        ids = list(seeds)
        for v in ids:
            if isinstance(v, bool) or not isinstance(v, Integral) or not 0 <= v < n:
                raise ValueError(
                    f"start vertex {v!r} is not a vertex id in [0, {n})"
                )
        if self._new_of_old is None:
            new_of_old = np.empty(n, dtype=np.int64)
            new_of_old[self.translation] = np.arange(n, dtype=np.int64)
            self._new_of_old = new_of_old
        return self._new_of_old[np.asarray(ids, dtype=np.int64)]

    @property
    def view(self) -> DataGraph:
        """Alias of :attr:`ordered`.

        Kept only because ``benchmarks/e2e/workloads.py``, which may not
        change alongside the code it measures, reads ``session.view``'s
        ``hub_index()``, ``degrees()`` and ``num_vertices``.
        """
        return self.ordered

    def options(self, **overrides) -> ExecOptions:
        """Session defaults merged with ``overrides`` — the one knob path."""
        return self.defaults.merged(overrides)

    def plan_for(
        self,
        pattern: Pattern,
        edge_induced: bool | None = None,
        symmetry_breaking: bool | None = None,
    ) -> ExplorationPlan:
        """The (cached) exploration plan for ``pattern`` under the flags.

        ``None`` flags fall back to the session defaults.  The cache is
        keyed by the pattern's exact signature, so mutating a pattern
        after a query simply misses the cache instead of serving a stale
        plan.
        """
        if edge_induced is None:
            edge_induced = self.defaults.edge_induced
        if symmetry_breaking is None:
            symmetry_breaking = self.defaults.symmetry_breaking
        return self._cached_plan(pattern, edge_induced, symmetry_breaking)

    def clear_caches(self) -> None:
        """Drop cached plans and start lists (hit/miss counters persist).

        The graph-level state (degree ordering and the arrays cached on
        it) stays — it is O(graph) once, whereas plans/start lists grow
        with the pattern stream (each bounded by :data:`PLAN_CACHE_LIMIT`,
        FIFO-evicted).
        """
        self._plans.clear()
        self._starts.clear()
        self._census.clear()

    def close(self, release_store: bool = False) -> None:
        """Release everything this session derived from its graph.

        The registry hook for the service tier
        (:class:`repro.service.SessionRegistry`): an evicted session must
        not keep the graph's derived state — degree-ordered copy,
        adjacency keys, hub index, plans, start lists, guard estimates —
        alive through its own references (a degree-sorted store's graph is
        its own ordered graph, so its keys and hub index are dropped from
        the graph itself).  With ``release_store=True`` the graph's backing
        :class:`~repro.graph.binary_io.GraphStore` is closed too (mmap
        descriptors freed immediately); pass it only when the caller owns
        the store — i.e. this session (or its registry) opened the path —
        since a closed store invalidates every other graph aliasing the
        mapped sections.  The session is unusable afterwards.
        """
        self.clear_caches()
        self._guard_cache.clear()
        self.last_query_plan = None
        self._ordered = None
        self._translation = None
        self._new_of_old = None
        graph = self.graph
        if graph is not None:
            # Drop the graph-cached derived objects we may have built, so
            # the graph itself does not pin them or this session.
            graph._adj_keys = graph._hub_index = None
            graph._ordered_cache = None
            if graph._session_cache is self:
                graph._session_cache = None
            if release_store and graph.backing_store is not None:
                graph.backing_store.close()

    def cache_info(self) -> dict[str, Any]:
        """Cache occupancy/hit counters (tests, benchmarks, dashboards)."""
        return {
            "plans": len(self._plans),
            "plan_hits": self.plan_cache_hits,
            "plan_misses": self.plan_cache_misses,
            "start_lists": len(self._starts),
            "census_transforms": len(self._census),
            "ordered_built": self._ordered is not None,
        }

    def _cached_plan(
        self, pattern: Pattern, edge_induced: bool, symmetry_breaking: bool
    ):
        """The cached exploration plan for ``pattern`` under the flags."""
        key = (pattern.signature(), edge_induced, symmetry_breaking)
        plan = self._plans.get(key)
        if plan is None:
            self.plan_cache_misses += 1
            plan = generate_plan(
                pattern,
                edge_induced=edge_induced,
                symmetry_breaking=symmetry_breaking,
            )
            _cache_put(self._plans, key, plan)
        else:
            self.plan_cache_hits += 1
        return plan

    def _frontier_key(
        self, plan: ExplorationPlan, label_index: bool = True
    ) -> frozenset | None:
        """The pinned-label set ``plan``'s level-0 frontier filters by.

        The G-Miner observation (§6.4): every task's start vertex must
        match some ordered core's *top* position, so when all cores pin
        that position to a label only those labels' vertices can seed a
        match.  ``None`` means unrestricted — a wildcard top position,
        or ``label_index`` off.  A labeled pattern cannot run on an
        unlabeled graph at all; every driver asks here first, so this is
        the one place that says so.
        """
        if plan.matched_pattern.is_labeled and self.ordered.labels() is None:
            raise MatchingError(
                "pattern has label constraints but the data graph is unlabeled"
            )
        pinned = plan.pinned_start_labels() if label_index else None
        return None if pinned is None else frozenset(pinned)

    def _frontier(self, key: frozenset | None):
        """The level-0 frontier for a :meth:`_frontier_key`: hub-first,
        label-filtered start vertices as one int64 array, cached per key
        (:func:`repro.core.accel.frontier_start_order`).  Drivers differ
        only in which slices of it they hand the executors."""
        starts = self._starts.get(key)
        if starts is None:
            starts = _cache_put(
                self._starts, key, _accel.frontier_start_order(self.ordered, key)
            )
        return starts

    def _translated(
        self, callback: Callable[[Match], None]
    ) -> Callable[[Match], None]:
        """Wrap ``callback`` to report matches in the caller's vertex ids."""
        old_of_new = self.translation.item  # plain ints, not numpy scalars

        def wrapper(m: Match) -> None:
            translated = tuple(
                old_of_new(v) if v >= 0 else -1 for v in m.mapping
            )
            callback(Match(m.pattern, translated))

        return wrapper

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def match(
        self,
        pattern: Pattern,
        callback: Callable[[Match], None] | None = None,
        **options,
    ) -> int:
        """Find every canonical match of ``pattern``; return the count.

        Invokes ``callback`` once per match (if given).  Any
        :class:`ExecOptions` field can be overridden by keyword; see the
        legacy :func:`repro.core.api.match` for per-knob semantics.
        """
        opts = self.defaults.merged(options)
        staged = self._stage([pattern], opts, count_only=callback is None)
        return self._execute(staged, [callback])[0]

    def count(self, pattern: Pattern, **options) -> int:
        """Number of canonical matches of ``pattern``.

        Equivalent to :meth:`match` without a callback, but lets the
        engine count final-step candidate sets without enumerating them.

        With ``approx=rel_err`` the count is *estimated* instead:
        sampled level-0 frontiers run through the same engines and the
        return value is an :class:`~repro.mining.sampling.ApproxCount`
        (an object with ``estimate``/``stderr``/``ci_low``/``ci_high``;
        ``int()`` rounds it) whose interval is grown adaptively until it
        is within ``rel_err`` of the estimate — see
        :mod:`repro.mining.sampling`.  ``confidence``, ``max_samples``
        and ``seed`` tune the estimator; a query may also *auto-route*
        to this tier under a ``latency_budget``, or via the
        ``guard="downgrade"`` escalation step.
        """
        opts = self.defaults.merged(options)
        return self._execute(self._stage([pattern], opts, count_only=True))[0]

    def count_many(
        self, patterns: Sequence[Pattern], num_processes: int = 1, **options
    ) -> dict[Pattern, int]:
        """Count each pattern over the shared session state.

        The multi-pattern overload of the paper's ``count`` (motif
        counting, Fig 4e): the ordered graph, its cached arrays and the
        plan cache are reused across every pattern instead of being
        re-derived per call, and compatible patterns additionally *fuse* —
        one shared level-0 frontier walk with shared numpy gathers serves
        the whole group (see :meth:`match_many` for the dispatch rules).

        The workload is compiled once (:class:`MultiPatternPlan`) and
        only the *driver* differs.  ``num_processes > 1``
        (:func:`repro.runtime.parallel.process_count_many`) cuts each
        group's frontier into degree-weighted chunks that worker
        processes pull from a shared queue, census tier included — true
        parallel speedup for motif censuses; it counts exactly and only
        on the batched engine (``engine="reference"``, hook and sampling
        options raise).  The stage is built here, once, with
        ``workers=num_processes`` and handed to the process runtime.
        ``approx=rel_err`` — or a ``latency_budget`` /
        ``guard="downgrade"`` escalation — *estimates* every pattern
        instead (:class:`~repro.mining.sampling.ApproxCount` values)
        from sampled rounds of each group's one shared walk.
        """
        patterns = list(patterns)
        opts = self.defaults.merged(options)
        if num_processes > 1:
            from ..runtime.parallel import _process_drive

            unsupported = opts.hooks(
                "stats", "timer", "control", "plan", "start_vertices",
                "budget", "approx", "latency_budget",
            )
            if unsupported:
                raise MatchingError(
                    f"count_many(num_processes={num_processes}) does not "
                    f"support the {sorted(unsupported)} option(s); drop "
                    "them or use num_processes=1"
                )
            if opts.engine == "reference":
                raise MatchingError(
                    "engine='reference' is not available under processes; "
                    "use 'auto' or 'accel-batch'"
                )
            return _process_drive(
                self, self._stage(patterns, opts, workers=num_processes)
            )
        totals = self._execute(self._stage(patterns, opts, count_only=True))
        return dict(zip(patterns, totals))

    def match_many(
        self,
        patterns: Sequence[Pattern],
        callbacks: Sequence[Callable[[Match], None] | None] | None = None,
        **options,
    ) -> list[int]:
        """Match every pattern; return per-pattern counts in input order.

        ``callbacks[i]`` (if given) fires once per match of
        ``patterns[i]``, in exactly the order a standalone
        :meth:`match` of that pattern would produce — fusion never
        reorders a member's own matches, only interleaves work *between*
        members.

        **Fused dispatch.**  On the batched engine, patterns sharing a
        level-0 frontier signature are grouped by
        :class:`MultiPatternPlan` and every group — a lone pattern is a
        group of one — runs through :func:`repro.core.accel.fused_run`:
        one frontier walk, shared first-level gathers, per-pattern
        masks.  The interpreter (``engine="reference"``, or planned for
        ``stats``/``timer``) runs the patterns one by one.
        """
        patterns = list(patterns)
        opts = self.defaults.merged(options)
        return self._execute(self._stage(patterns, opts), callbacks)

    def match_batches_many(
        self,
        patterns: Sequence[Pattern],
        on_batches: Sequence[Callable],
        **options,
    ) -> list[int]:
        """Stream every pattern's matches as arrays; return per-pattern counts.

        The multi-pattern overload of :meth:`match_batches`:
        ``on_batches[i]`` receives ``patterns[i]``'s match rows (caller
        vertex ids, ``-1`` for anti-vertices).  Fusion follows the
        :meth:`match_many` dispatch rules — FSM rounds stream every
        structural pattern of a round off one shared frontier walk.
        """
        patterns = list(patterns)
        opts = self.defaults.merged(options)
        return self._execute(self._stage(patterns, opts), None, on_batches)

    def exists(self, pattern: Pattern, **options) -> bool:
        """Whether at least one match exists; stops at the first (§5.3).

        The paper's existence-query idiom (Fig 4f): the callback fires
        ``stopExploration()`` on the first match.  The frontier-batched
        engine polls the control between frontier blocks and per emitted
        match, so this qualifies for vectorized dispatch.  A ``control``
        override is honored as an external cancel: the probe stops when
        either the first match lands or the caller's control fires (a
        cancelled probe reports ``False``).  The probe stops its own
        :class:`~repro.core.callbacks.Stop` linked to the caller's
        token, never the token — a successful ``exists`` won't cancel
        other runs sharing that control.  A ``budget`` binds as usual.
        """
        options = dict(options)
        control = Stop(options.get("control", self.defaults.control))
        options["control"] = control
        found: list[Match] = []

        def on_first(m: Match) -> None:
            found.append(m)
            control.stop()

        opts = self.defaults.merged(options)
        self._execute(self._stage([pattern], opts), [on_first])
        return bool(found)

    def match_batches(self, pattern: Pattern, on_batch, **options) -> int:
        """Stream every canonical match as 2D numpy arrays; return the count.

        ``on_batch`` receives ``(rows, num_pattern_vertices)`` int64
        arrays — column ``u`` is the data vertex matched to pattern
        vertex ``u`` (caller ids; ``-1`` for anti-vertices).  Batch
        boundaries and inter-batch order are unspecified; the row
        multiset equals :meth:`match`'s match multiset.
        """
        opts = self.defaults.merged(options)
        return self._execute(self._stage([pattern], opts), None, [on_batch])[0]

    def _batch_emitter(self, on_batch) -> Callable:
        """Wrap ``on_batch`` to receive rows in the caller's vertex ids."""
        translation = self.translation

        def emit(mappings) -> None:
            translated = translation[np.maximum(mappings, 0)]
            translated[mappings < 0] = -1
            on_batch(translated)

        return emit

    def aggregate(
        self,
        patterns: Pattern | Iterable[Pattern],
        map_fn: Callable[[Match], tuple[Any, Any] | None],
        reduce: Callable[[Any, Any], Any] | None = None,
        on_update: Callable[[Aggregator], None] | None = None,
        interval: float = 0.005,
        num_threads: int = 1,
        **options,
    ) -> dict[Any, Any]:
        """Map/reduce over the matches of one or more patterns (§5.4).

        The paper's aggregator idiom as a verb: ``map_fn(match)`` returns
        a ``(key, value)`` pair (or ``None`` to skip the match); values
        sharing a key are folded with ``reduce`` (default: addition).
        Matching writes into a worker-local
        :class:`~repro.core.callbacks.Aggregator` that an asynchronous
        :class:`~repro.runtime.aggregation.AggregatorThread` drains into
        the global map while exploration is still running, so an
        ``on_update`` hook sees live aggregates — pair it with a
        ``control`` override to stop early once a threshold is met (the
        Fig 4b pattern).  Returns the final ``{key: value}`` map.

        With ``num_threads > 1`` each pattern runs through
        :func:`repro.runtime.parallel.parallel_match`: worker threads
        keep thread-local aggregators that the aggregator thread drains
        concurrently — the paper's end-to-end concurrent map/reduce.
        ``reduce`` must then be order-insensitive (associative and
        commutative), since workers fold values in a nondeterministic
        interleaving; the default addition and reducers like ``max``
        qualify.  Multiple patterns without a ``control`` (and a single
        thread) route through :meth:`match_many`, so compatible patterns
        fuse onto one frontier walk.
        """
        # Deferred import: repro.runtime imports repro.core at module
        # load; by the time a session aggregates, both are initialized.
        from ..runtime.aggregation import AggregatorThread

        if isinstance(patterns, Pattern):
            patterns = [patterns]
        patterns = list(patterns)
        opts = self.defaults.merged(options)

        def fold(m: Match, into: Aggregator) -> None:
            kv = map_fn(m)
            if kv is not None:
                into.map_pattern(kv[0], kv[1])

        total = Aggregator(combine=reduce)
        if num_threads > 1:
            from ..runtime.parallel import _thread_match

            # One shared destination across every pattern's run, so
            # on_update observes cumulative totals (the Fig 4b
            # threshold-stop idiom keeps working across patterns).  The
            # options go over whole: the thread runtime honours or
            # rejects each knob, it never drops one.
            for pattern in patterns:
                _thread_match(
                    self, pattern, opts, num_threads, fold, interval,
                    on_update, reduce, total,
                )
                if opts.control is not None and opts.control.stopped:
                    break
            return total.result()

        local = Aggregator(combine=reduce)

        def on_match(m: Match) -> None:
            fold(m, local)

        # Without an early-termination token the members may interleave
        # freely, so the patterns run as one workload (compatible ones
        # fuse); with one they run one by one, so a stop lands between
        # patterns.
        workloads = (
            [patterns] if opts.control is None else [[p] for p in patterns]
        )
        with AggregatorThread(
            total, [local], interval=interval, on_update=on_update
        ):
            for workload in workloads:
                self._execute(
                    self._stage(workload, opts), [on_match] * len(workload)
                )
                if opts.control is not None and opts.control.stopped:
                    break
        return total.result()

    # ------------------------------------------------------------------
    # Execution core (shared by every verb)
    # ------------------------------------------------------------------

    def _stage(
        self,
        patterns: Sequence[Pattern],
        opts: ExecOptions,
        workers: int | None = 1,
        count_only: bool = False,
    ) -> StagedQuery:
        """Probe → plan: the one dispatch stage of every query.

        Every entry point — the session verbs, both concurrent runtimes
        and the service batcher (once per batch) — resolves how its
        workload runs here, once; a single-pattern query is the workload
        of one.  Each pattern's exploration plan is looked up once and
        its probe estimate fetched from the session cache (one bounded
        frontier walk per ``(width, frontier, symmetry breaking)``,
        ever); :func:`repro.runtime.planner.plan_workload` then admits
        the workload (refusing or downgrading predicted-explosive
        members) and fills whatever the caller did not pin — engine,
        frontier chunk, sampling route, and the pool size when
        ``workers`` is ``None``.  The options run are the plan's, so
        ``last_query_plan`` says what ran.  Caller-id ``start_vertices``
        are checked and mapped to ordered ids here
        (:meth:`_ordered_seeds`); the drivers that seed chunks after
        staging already hold ordered ids.

        ``count_only`` marks runs without a match consumer.  Those — if
        nothing observes their progress either (:data:`OBSERVERS`) — may
        legally be answered by the sampling tier: only they are
        escalated to it, by the guard or by a ``latency_budget``; every
        enumerating run stays exact.

        Returns the :class:`StagedQuery` the executors take.
        """
        # Deferred import: repro.runtime imports repro.core at module
        # load; by the time a session runs a query, both exist.
        from ..runtime import planner

        if opts.start_vertices is not None:
            opts = dataclasses.replace(
                opts, start_vertices=self._ordered_seeds(opts.start_vertices)
            )
        plans, estimates = self._estimates(patterns, opts)
        query_plan = planner.plan_workload(
            self, patterns, opts, estimates=estimates, num_workers=workers,
            count_only=count_only,
        )
        self.last_query_plan = query_plan
        opts = dataclasses.replace(
            opts,
            engine=query_plan.engine,
            frontier_chunk=query_plan.frontier_chunk,
            approx=query_plan.approx,
        )
        samplable = count_only and not opts.hooks(*OBSERVERS)
        return StagedQuery(patterns, plans, opts, query_plan, samplable)

    def _estimates(self, patterns: Sequence[Pattern], opts: ExecOptions):
        """Each pattern's plan lookup and probe estimate.

        Returns ``(plans, estimates)``, both aligned with ``patterns``:
        the exploration plan per pattern (one plan-cache lookup each; an
        explicit ``opts.plan`` bypasses the cache) and its
        :class:`~repro.runtime.guards.CostEstimate`, cached under what
        :func:`~repro.runtime.guards.probe` reads — ``(pattern width,
        frontier key, symmetry_breaking)`` — so patterns that differ only
        in structure share one walk.  Only the probe *measurements* are
        cached; the explosive threshold is a deployment knob documented
        as resolved at call time, so every hit re-resolves it against
        the current :data:`repro.runtime.guards.EXPLOSIVE_PARTIALS` —
        retuning the module threshold flips admission on warm sessions
        too.
        """
        from ..runtime import guards

        plans, estimates = [], []
        for pattern in patterns:
            plan = opts.plan
            if plan is None:
                plan = self._cached_plan(
                    pattern, opts.edge_induced, opts.symmetry_breaking
                )
            key = (
                pattern.num_vertices,
                self._frontier_key(plan),
                opts.symmetry_breaking,
            )
            estimate = self._guard_cache.get(key)
            if estimate is None:
                estimate = _cache_put(self._guard_cache, key, guards.probe(
                    self.ordered,
                    pattern.num_vertices,
                    self._frontier(key[1]),
                    symmetry_breaking=opts.symmetry_breaking,
                ))
            plans.append(plan)
            estimates.append(guards.resolve_threshold(estimate))
        return plans, estimates

    def _execute(
        self,
        staged: StagedQuery,
        callbacks: Sequence[Callable[[Match], None] | None] | None = None,
        on_batches: Sequence[Callable | None] | None = None,
    ) -> list:
        """Execute a staged workload; per-pattern totals in input order.

        The only code between a verb (or a driver holding a stage) and
        the executors: on the batched engine it compiles the workload
        (:class:`MultiPatternPlan`) and runs every group through
        :meth:`MultiPatternPlan.run_group`; the interpreter runs each
        pattern through :meth:`_run_reference`.  Either way the run
        covers ``opts.start_vertices`` — a thread chunk, an explicit
        seed list — or, without them, each pattern's whole frontier.
        ``callbacks[i]`` / ``on_batches[i]`` consume member ``i``'s
        matches (caller ids).  A staged ``approx`` answers the whole
        workload from the sampling tier instead (which raises when the
        stage has consumers or observers); ``on_budget="partial"`` turns
        a budget trip into flagged partial totals.
        """
        patterns, plans, opts, _, _ = staged
        n = len(patterns)
        callbacks = list(callbacks) if callbacks is not None else [None] * n
        on_batches = list(on_batches) if on_batches is not None else [None] * n
        if len(callbacks) != n or len(on_batches) != n:
            raise ValueError(
                "callbacks/on_batches must align one-to-one with patterns"
            )
        if opts.approx is not None:
            from ..mining.sampling import approx_count_many_session

            return approx_count_many_session(self, staged)
        # The run's one stop token, armed from the caller's control and
        # budget (a service timeout is the budget's deadline); None when
        # nothing can stop the run.  It never pins the interpreter.
        if opts.budget is not None:
            stop = opts.budget.meter()  # a Budget subclass may shape it
            stop.control = opts.control
        elif opts.control is None or isinstance(opts.control, Stop):
            stop = opts.control  # already a token: run under it as is
        else:
            stop = Stop(opts.control)
        totals: list = [None] * n
        running: Sequence[int] = ()
        try:
            if opts.engine == "reference":
                for idx in range(n):
                    running = (idx,)
                    totals[idx] = self._run_reference(
                        plans[idx], callbacks[idx], opts, stop, on_batches[idx]
                    )
            else:
                consumers = {
                    idx: (
                        self._translated(cb) if cb is not None else None,
                        self._batch_emitter(ob) if ob is not None else None,
                    )
                    for idx, (cb, ob) in enumerate(zip(callbacks, on_batches))
                    if cb is not None or ob is not None
                }
                multi = MultiPatternPlan.build(
                    self, patterns, plans, opts, consumers
                )
                starts = opts.start_vertices
                for g, running in enumerate(multi.groups):
                    counts = multi.run_group(
                        g, self.ordered,
                        self._frontier(multi.group_keys[g])
                        if starts is None else starts,
                        consumers, opts.frontier_chunk, stop,
                    )
                    for idx, total in multi.demux(g, counts).items():
                        totals[idx] = total
        except BudgetExceededError as err:
            if opts.on_budget != "partial":
                raise
            # The one place a budget trip lands.  Members that finished
            # before it keep their exact ints; a member that was running
            # alone gets the engine's own partial; a running group's
            # members (a budgeted group counts every member directly, so
            # the error's per-member totals align with it) and the
            # members never started come back flagged, with no run
            # issued to re-trip it.
            partial = err.partial
            cut = dict(zip(running, partial.detail.get("totals", ())))
            totals = [
                total if total is not None
                else partial if running == (idx,)
                else PartialResult(
                    cut.get(idx, 0), truncated=True, reason=partial.reason
                )
                for idx, total in enumerate(totals)
            ]
        return totals

    def _run_reference(
        self,
        plan: ExplorationPlan,
        callback: Callable[[Match], None] | None,
        opts: ExecOptions,
        stop: Stop | None,
        on_batch=None,
    ) -> int:
        """The interpreter's per-pattern executor.

        Runs ``plan`` over ``opts.start_vertices`` — a thread chunk, a
        sampled round — or, without them, its whole frontier; matches go
        to ``callback`` one by one or to ``on_batch`` as row arrays
        through an :data:`INTERPRETER_BATCH_ROWS` buffer, both in caller
        ids.
        """
        starts = opts.start_vertices
        if starts is None:
            starts = self._frontier(self._frontier_key(plan, opts.label_index))
        on_match = self._translated(callback) if callback is not None else None
        emit = self._batch_emitter(on_batch) if on_batch is not None else None
        buffer: list[tuple[int, ...]] = []

        def flush() -> None:
            if buffer:
                emit(np.asarray(buffer, dtype=np.int64))
                buffer.clear()

        if emit is not None:
            def on_match(m: Match) -> None:
                buffer.append(m.mapping)
                if len(buffer) >= INTERPRETER_BATCH_ROWS:
                    flush()

        total = run_tasks(
            self.ordered,
            plan,
            # the interpreter walks Python ints, not numpy scalars
            start_vertices=(
                starts.tolist() if isinstance(starts, np.ndarray) else starts
            ),
            on_match=on_match,
            stop=stop,
            stats=opts.stats,
            timer=opts.timer,
            count_only=on_match is None,
        )
        flush()
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.cache_info()
        return (
            f"MiningSession({self.graph!r}, plans={info['plans']}, "
            f"hits={info['plan_hits']})"
        )


def as_session(
    graph_or_session: Union[GraphSource, MiningSession],
) -> MiningSession:
    """Coerce a graph, graph source or session to a session.

    Sessions pass through untouched; a bare :class:`DataGraph` — or a
    path / :class:`~repro.graph.binary_io.GraphStore`, which loads first
    — resolves to its shared default session
    (:meth:`MiningSession.for_graph`), so library code written against
    sessions keeps amortizing state even when callers hand it plain
    graphs.
    """
    if isinstance(graph_or_session, MiningSession):
        return graph_or_session
    try:
        return MiningSession.for_graph(graph_or_session)
    except TypeError:
        raise TypeError(
            "expected DataGraph, GraphStore, graph path or MiningSession, "
            f"got {type(graph_or_session).__name__}"
        ) from None
