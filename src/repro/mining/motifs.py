"""Motif counting (Fig 4e): vertex-induced counts of all size-k patterns.

A motif is any connected unlabeled pattern; counting motifs of size ``k``
means counting the vertex-induced matches of every connected pattern with
``k`` vertices.  The pattern-aware way (this module) plans and counts each
motif pattern directly; there is no isomorphism classification of explored
subgraphs — but the census *is* the canonical multi-pattern workload, so
all patterns of one call go through the session's fused multi-pattern
runner (:meth:`~repro.core.session.MiningSession.count_many` /
:meth:`~repro.core.session.MiningSession.match_many`): one shared level-0
frontier walk, shared first-level gathers, and — for count-only censuses
— the shared non-induced basis of
:mod:`repro.core.multipattern`, with results demultiplexed back to
per-motif counts.  ``engine="fused"`` / ``engine="accel-batch"`` ablate
fused vs. sequential per-pattern execution.

Every entry point accepts either a :class:`~repro.graph.graph.DataGraph`
or a :class:`~repro.core.session.MiningSession`; a motif census run
through a session also shares its degree ordering, derived arrays and plan
cache with every other query of that session.

``labeled_motif_counts`` additionally discovers labels: matches of each
structural motif are grouped by the labels of their data vertices, the
workload behind the paper's "labeled 3-/4-motifs" rows.
"""

from __future__ import annotations

from ..core.callbacks import Match
from ..core.session import MiningSession, as_session
from ..graph.graph import DataGraph
from ..pattern.canonical import automorphism_count, canonical_permutation
from ..pattern.generators import generate_all_vertex_induced
from ..pattern.pattern import Pattern

__all__ = ["motif_counts", "labeled_motif_counts", "motif_census_table"]


def motif_counts(
    graph: DataGraph | MiningSession,
    size: int,
    symmetry_breaking: bool = True,
    engine: str | None = None,
    num_processes: int = 1,
) -> dict[Pattern, int]:
    """Count vertex-induced matches of every motif with ``size`` vertices.

    The whole census is issued as one
    :meth:`~repro.core.session.MiningSession.count_many`, so compatible
    motifs fuse onto a shared frontier walk (and, under the default
    dispatch, onto the shared non-induced basis).  With
    ``symmetry_breaking=False`` (the PRG-U ablation) the engine
    enumerates all automorphic copies; the counts are then corrected by
    dividing by |Aut(motif)| — the "multiplicity" post-processing systems
    like AutoMine push onto the user (§2.2.2).  ``engine=None`` inherits
    the session's default dispatch.

    ``num_processes > 1`` scales the census across worker processes:
    the fused frontier walk is cut into degree-weighted chunks pulled
    from a shared work queue
    (:func:`repro.runtime.parallel.process_count_many`).
    """
    session = as_session(graph)
    motifs = generate_all_vertex_induced(size)
    found = session.count_many(
        motifs,
        edge_induced=False,
        symmetry_breaking=symmetry_breaking,
        engine=engine,
        num_processes=num_processes,
    )
    results: dict[Pattern, int] = {}
    for motif in motifs:
        matches = found[motif]
        if not symmetry_breaking:
            matches //= automorphism_count(motif.vertex_induced_closure())
        results[motif] = matches
    return results


def labeled_motif_counts(
    graph: DataGraph | MiningSession, size: int, engine: str | None = None
) -> dict[tuple, int]:
    """Count vertex-induced motifs grouped by discovered vertex labels.

    Returns ``{(structural canonical code, label tuple): count}`` where
    the label tuple lists labels at the canonical ordering's positions.
    Requires a labeled data graph.  All motifs run through one
    :meth:`~repro.core.session.MiningSession.match_many`, so the
    censuses' structural matches come off a fused frontier walk.
    """
    session = as_session(graph)
    data = session.graph
    results: dict[tuple, int] = {}
    motifs = generate_all_vertex_induced(size)
    callbacks = []
    for motif in motifs:
        code, order = canonical_permutation(motif)

        def on_match(m: Match, _code=code, _order=order) -> None:
            labels = tuple(data.label(m.mapping[u]) for u in _order)
            key = (_code, labels)
            results[key] = results.get(key, 0) + 1

        callbacks.append(on_match)
    session.match_many(motifs, callbacks, edge_induced=False, engine=engine)
    return results


def motif_census_table(
    graph: DataGraph | MiningSession,
    size: int,
    engine: str | None = None,
    num_processes: int = 1,
) -> str:
    """Human-readable motif census (used by the motif-census example)."""
    session = as_session(graph)
    rows = []
    for motif, found in sorted(
        motif_counts(
            session, size, engine=engine, num_processes=num_processes
        ).items(),
        key=lambda kv: -kv[1],
    ):
        rows.append(
            f"  {motif.num_edges:>2} edges  {found:>12,}  {motif!r}"
        )
    header = f"{size}-motif census of {session.graph.name}:"
    return "\n".join([header, *rows])
