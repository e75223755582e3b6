"""Frequent Subgraph Mining with MNI support and label discovery (§3.2.1).

The FSM loop is the paper's Figure 4a program:

1. start from the unlabeled single-edge pattern;
2. ``match()`` it with *label discovery*: every match's data labels induce
   a labeled pattern, whose per-vertex domains are updated;
3. prune labeled patterns below the support threshold (MNI is
   anti-monotonic, so infrequent patterns cannot have frequent
   extensions);
4. extend the survivors by one edge (new vertices are label wildcards) and
   repeat until patterns have the requested number of edges.

Domains are folded into canonical coordinates via
:func:`~repro.pattern.canonical.canonical_sweep`, so matches of
isomorphic labeled patterns discovered through different extension paths
aggregate into one table.  Step 3 also runs *inside* step 2
(:class:`_LabelSpace`): rows of a labeling that cannot be frequent are
dropped before anything is grouped, canonicalized or written for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as _np

from ..core.session import MiningSession, as_session
from ..graph.graph import DataGraph
from ..pattern.canonical import canonical_sweep, pattern_from_code
from ..pattern.extend import extend_by_edge
from ..pattern.pattern import Pattern
from .support import Domain

__all__ = ["FSMResult", "fsm"]


@dataclass
class FSMResult:
    """Outcome of one FSM run.

    ``frequent`` maps each frequent labeled pattern (canonical form) at the
    final size to its MNI support; ``frequent_by_size[k]`` records the
    intermediate rounds.  ``domain_writes`` totals the per-vertex domain
    insertions *performed* — rows the sink pruned as unable to be frequent
    are never written, in either symmetry-breaking mode — the
    aggregation-write metric behind Figure 10's FSM bars, and
    ``domain_bytes`` the peak logical bitmap footprint (Figure 13).
    """

    threshold: int
    num_edges: int
    frequent: dict[Pattern, int] = field(default_factory=dict)
    frequent_by_size: dict[int, dict[Pattern, int]] = field(default_factory=dict)
    patterns_explored: int = 0
    domain_writes: int = 0
    domain_bytes: int = 0

    def total_frequent(self) -> int:
        return len(self.frequent)


class _LabelSpace:
    """One graph's labels as dense ids, plus the anti-monotone row filter.

    Labels are remapped to ``0..L-1`` once per run, so sparse or negative
    raw labels cost nothing; an unlabeled graph is the one-label case
    whose only "label" is the wildcard.  MNI support is anti-monotone
    (§2.1), so a labeling that contains a label carried by fewer than
    ``threshold`` vertices, or — once round 1 has reported them — a
    pattern edge whose end labels are not a frequent pair, can never
    reach the threshold: :meth:`keep` drops its rows before they are
    grouped.  A labeling that can be frequent keeps every one of its
    rows, hence its exact support.
    """

    def __init__(self, graph: DataGraph, threshold: int):
        raw = graph.labels()
        if raw is None:
            self.alphabet: list[int | None] = [None]
            self.ids = _np.zeros(graph.num_vertices, dtype=_np.int64)
        else:
            alphabet, ids = _np.unique(
                _np.asarray(raw, dtype=_np.int64), return_inverse=True
            )
            self.alphabet, self.ids = alphabet.tolist(), ids
        carried = _np.bincount(self.ids, minlength=len(self.alphabet))
        self._vertex_ok = carried >= threshold
        self._pairs = None  # sorted keys a * L + b of the frequent edges

    def keep_pairs_of(self, frequent_edges) -> None:
        """Restrict later rounds to the end-label pairs of round 1."""
        index = {lab: i for i, lab in enumerate(self.alphabet)}
        radix = len(self.alphabet)
        keys = set()
        for edge in frequent_edges:
            a, b = index[edge.label_of(0)], index[edge.label_of(1)]
            keys.update((a * radix + b, b * radix + a))
        self._pairs = _np.array(sorted(keys), dtype=_np.int64)

    def keep(self, label_rows, edges) -> "_np.ndarray":
        """Boolean mask of the rows whose labeling can still be frequent."""
        if self._pairs is None:
            return self._vertex_ok[label_rows].all(axis=1)
        ok = _np.ones(len(label_rows), dtype=bool)
        radix, pairs = len(self.alphabet), self._pairs
        for a, b in edges:
            keys = label_rows[:, a] * radix + label_rows[:, b]
            at = _np.searchsorted(pairs, keys).clip(max=pairs.size - 1)
            ok &= pairs[at] == keys
        return ok


def _batch_discoverer(
    space: _LabelSpace,
    structural: Pattern,
    symmetry_breaking: bool,
):
    """``(tables, on_batch)`` for one structural pattern.

    ``tables`` maps the canonical code of each discovered labeling to its
    ``(canonical pattern, domain)``.  Each batch is pruned by
    :meth:`_LabelSpace.keep`, group-reduced with a vectorized
    row-``unique`` over the matched label tuples, then folded into the
    domains column-wise in canonical coordinates — one Python call per
    distinct labeling per batch instead of one per match, and one
    canonical sweep per distinct labeling per round.
    """
    tables: dict[tuple, tuple[Pattern, Domain]] = {}
    # Per distinct label-id tuple: (domain, canonical order of its columns).
    labelings: dict[tuple, tuple[Domain, list[int]]] = {}
    n = structural.num_vertices
    edges = structural.edges()
    alphabet = space.alphabet
    # Scalar keys for the row group-by: label tuples are mixed-radix
    # encoded so the per-batch unique runs over 1D int64 (far cheaper
    # than ``np.unique(axis=0)``'s structured sort, which is the safe
    # fallback when a huge alphabet would overflow the encoding).
    radix = len(alphabet)
    powers = (
        radix ** _np.arange(n, dtype=_np.int64)
        if n * (radix - 1).bit_length() < 62
        else None
    )

    def labeling(ids: tuple) -> tuple[Domain, list[int]]:
        labeled = structural.copy()
        for u, i in enumerate(ids):
            if alphabet[i] is not None:
                labeled.set_label(u, alphabet[i])
        code, order, orbits = canonical_sweep(labeled)
        if code not in tables:
            tables[code] = (
                pattern_from_code(code),
                Domain(n, orbits if symmetry_breaking else None),
            )
        return tables[code][1], list(order)

    def on_batch(mappings) -> None:
        label_rows = space.ids[mappings]
        keep = space.keep(label_rows, edges)
        if not keep.all():
            mappings, label_rows = mappings[keep], label_rows[keep]
            if not len(mappings):
                return
        # Group rows by their matched label tuple in one vectorized
        # pass (unique + stable argsort, so each group is one slice),
        # then write each group's columns (canonical order) into its
        # domain table as a batch.
        _, first_row, inverse = _np.unique(
            label_rows if powers is None else label_rows @ powers,
            axis=0 if powers is None else None,
            return_index=True,
            return_inverse=True,
        )
        inverse = inverse.reshape(-1)  # numpy 2.0 shapes it (rows, 1) under axis=0
        by_group = mappings[_np.argsort(inverse, kind="stable")]
        ends = _np.cumsum(_np.bincount(inverse, minlength=first_row.size))
        start = 0
        for ids, end in zip(label_rows[first_row].tolist(), ends.tolist()):
            ids = tuple(ids)
            found = labelings.get(ids)
            if found is None:
                found = labelings[ids] = labeling(ids)
            domain, order = found
            domain.update_batch(by_group[start:end, order])
            start = end

    return tables, on_batch


def fsm(
    graph: DataGraph | MiningSession,
    num_edges: int,
    threshold: int,
    symmetry_breaking: bool = True,
    engine: str | None = None,
) -> FSMResult:
    """Mine all frequent labeled patterns with up to ``num_edges`` edges.

    Parameters
    ----------
    graph: a *labeled* data graph (or a session pinning one); every
        round's structural matches run over one shared session.
    num_edges: pattern size in edges at the final round (the paper's
        "3-edge FSM" is ``num_edges=3``).
    threshold: MNI support threshold tau.
    symmetry_breaking: disable for the PRG-U ablation — every automorphic
        match then updates domains redundantly (Fig 10's FSM comparison).
    """
    session = as_session(graph)
    space = _LabelSpace(session.graph, threshold)
    result = FSMResult(threshold=threshold, num_edges=num_edges)
    seed = Pattern.from_edges([(0, 1)])
    frontier: list[Pattern] = [seed]
    for size in range(1, num_edges + 1):
        frequent_here: dict[Pattern, int] = {}
        merged: dict[tuple, tuple[Pattern, Domain]] = {}
        # One walk per round: the structural patterns that share a level-0
        # frontier fuse, and every pattern's matches arrive as arrays.
        sinks = [
            _batch_discoverer(space, s, symmetry_breaking) for s in frontier
        ]
        session.match_batches_many(
            frontier,
            [on_batch for _, on_batch in sinks],
            edge_induced=True,
            symmetry_breaking=symmetry_breaking,
            engine=engine,
        )
        for tables, _ in sinks:
            result.patterns_explored += 1
            for code, (labeled, domain) in tables.items():
                if code in merged:
                    merged[code][1].merge_from(domain)
                else:
                    merged[code] = (labeled, domain)
        round_bytes = 0
        for labeled, domain in merged.values():
            result.domain_writes += domain.writes
            round_bytes += domain.memory_bytes()
            support = domain.support()
            if support >= threshold:
                frequent_here[labeled] = support
        result.domain_bytes = max(result.domain_bytes, round_bytes)
        result.frequent_by_size[size] = frequent_here
        if size == num_edges or not frequent_here:
            result.frequent = frequent_here
            break
        if size == 1:
            space.keep_pairs_of(frequent_here)
        frontier = extend_by_edge(frequent_here.keys())
    return result
