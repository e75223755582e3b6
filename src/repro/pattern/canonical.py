"""Isomorphism, automorphisms and canonical codes for small patterns.

Patterns are tiny (the paper never mines beyond a handful of vertices), so
exact algorithms are affordable: automorphisms and isomorphisms are found by
class-pruned backtracking, and the canonical code is the lexicographically
minimal encoding over all vertex orderings consistent with invariant
classes.  One sweep over those orderings (:func:`canonical_sweep`) yields
the code, a minimizing order and the vertex orbits; the other canonical
entry points are projections of it.

Anti-edges are treated as a second edge color: an automorphism must map
edges to edges *and* anti-edges to anti-edges (this is what makes
symmetry-breaking anti-vertex-aware, §4.3).  Labels must be preserved
exactly, with the wildcard (no label) its own class: a label cell is
``(0,)`` for the wildcard and ``(1, label)`` otherwise, so no label value
(``-1`` included) can stand in for it.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

from .pattern import Pattern

__all__ = [
    "automorphisms",
    "automorphism_count",
    "find_isomorphism",
    "are_isomorphic",
    "canonical_code",
    "canonical_form",
    "canonical_permutation",
    "canonical_sweep",
    "pattern_from_code",
]


_WILDCARD = (0,)


def _color_matrix(p: Pattern) -> list[list[int]]:
    """Symmetric adjacency cells: 0 = no edge, 1 = edge, 2 = anti-edge."""
    color = [[0] * p.num_vertices for _ in range(p.num_vertices)]
    for u, v in p.edges():
        color[u][v] = color[v][u] = 1
    for u, v in p.anti_edges():
        color[u][v] = color[v][u] = 2
    return color


def _vertex_classes(p: Pattern, color: list[list[int]]) -> list[tuple]:
    """Isomorphism-invariant ``(degree, anti-degree, label cell)`` per vertex."""
    labels = p.labels()
    return [
        (row.count(1), row.count(2), (1, labels[u]) if u in labels else _WILDCARD)
        for u, row in enumerate(color)
    ]


def _compatible(
    cp: list[list[int]], cq: list[list[int]], mapping: list[int], u: int, cand: int
) -> bool:
    """Whether extending ``mapping`` with ``u -> cand`` preserves the colors."""
    return all(cp[u][w] == cq[cand][mapping[w]] for w in range(u))


def _isomorphisms(p: Pattern, q: Pattern) -> Iterator[list[int]]:
    """Yield all isomorphisms p -> q as lists (mapping[u] = image of u)."""
    n = p.num_vertices
    if n != q.num_vertices or p.num_edges != q.num_edges:
        return
    if p.num_anti_edges != q.num_anti_edges:
        return
    cp, cq = _color_matrix(p), _color_matrix(q)
    p_classes = _vertex_classes(p, cp)
    q_classes = _vertex_classes(q, cq)
    if sorted(p_classes) != sorted(q_classes):
        return

    candidates = [
        [v for v in range(n) if q_classes[v] == p_classes[u]] for u in range(n)
    ]
    mapping = [-1] * n
    used = [False] * n

    def backtrack(u: int) -> Iterator[list[int]]:
        if u == n:
            yield mapping.copy()
            return
        for cand in candidates[u]:
            if not used[cand] and _compatible(cp, cq, mapping, u, cand):
                mapping[u] = cand
                used[cand] = True
                yield from backtrack(u + 1)
                used[cand] = False
                mapping[u] = -1

    yield from backtrack(0)


def automorphisms(p: Pattern) -> list[list[int]]:
    """All automorphisms of ``p`` (edge-, anti-edge- and label-preserving).

    Returns a list of permutations, each a list where ``perm[u]`` is the
    image of vertex ``u``.  The identity is always included.

    .. warning:: the group can be factorial in ``|V(p)|`` (a k-clique has
       k! automorphisms) — materialize it only for small patterns.  The
       plan generator never calls this: it uses the polynomial
       stabilizer-chain helpers (:func:`exists_automorphism`,
       :func:`stabilizer_orbit`) instead.
    """
    return list(_isomorphisms(p, p))


def exists_automorphism(p: Pattern, forced: dict[int, int]) -> bool:
    """Whether some automorphism of ``p`` extends the ``forced`` assignments.

    ``forced`` maps pattern vertices to required images.  Backtracks with
    class pruning and stops at the *first* witness, so highly symmetric
    patterns (where the full group is factorial) answer in polynomial
    time in practice — this is the primitive behind stabilizer-chain
    symmetry breaking.
    """
    n = p.num_vertices
    color = _color_matrix(p)
    classes = _vertex_classes(p, color)
    for u, v in forced.items():
        if classes[u] != classes[v]:
            return False
    candidates = [
        [v for v in range(n) if classes[v] == classes[u]] for u in range(n)
    ]
    mapping = [-1] * n
    used = [False] * n

    def backtrack(u: int) -> bool:
        if u == n:
            return True
        cands = (forced[u],) if u in forced else candidates[u]
        for cand in cands:
            if not used[cand] and _compatible(color, color, mapping, u, cand):
                mapping[u] = cand
                used[cand] = True
                if backtrack(u + 1):
                    return True
                used[cand] = False
                mapping[u] = -1
        return False

    return backtrack(0)


def stabilizer_orbit(p: Pattern, u: int, fixed_count: int) -> list[int]:
    """Orbit of ``u`` under the subgroup fixing vertices ``0..fixed_count-1``.

    Since the stabilizer fixes every vertex below ``fixed_count``
    pointwise, the orbit is a subset of ``{u} ∪ {fixed_count.., n-1}``;
    each candidate costs one :func:`exists_automorphism` search.
    """
    forced_base = {w: w for w in range(fixed_count)}
    orbit = [u]
    for v in range(p.num_vertices):
        if v == u or v < fixed_count:
            continue
        forced = dict(forced_base)
        forced[u] = v
        if exists_automorphism(p, forced):
            orbit.append(v)
    return sorted(orbit)


def automorphism_count(p: Pattern) -> int:
    """|Aut(p)| — the redundancy factor symmetry breaking removes (Fig 10).

    Computed by the orbit–stabilizer theorem along the chain fixing
    vertices ``0, 1, ..``: ``|Aut| = ∏ |orbit(u) under Stab(0..u-1)|``.
    Polynomially many single-automorphism searches instead of a factorial
    enumeration, so it is exact even for large cliques (14! and beyond).
    """
    total = 1
    for u in range(p.num_vertices):
        total *= len(stabilizer_orbit(p, u, u))
    return total


def find_isomorphism(p: Pattern, q: Pattern) -> list[int] | None:
    """One isomorphism from ``p`` to ``q``, or ``None``."""
    for mapping in _isomorphisms(p, q):
        return mapping
    return None


def are_isomorphic(p: Pattern, q: Pattern) -> bool:
    """Whether two patterns are isomorphic (respecting anti-edges, labels)."""
    return find_isomorphism(p, q) is not None


def canonical_sweep(
    p: Pattern,
) -> tuple[tuple, tuple[int, ...], list[list[int]]]:
    """``(code, order, orbits)`` from one sweep over vertex orderings.

    The code is ``(n, cells, label_row)``: the upper triangle of the color
    matrix row by row and the label cells, under the ordering that
    minimizes ``cells``; ``order[i]`` is the original vertex at canonical
    position ``i``.  Two patterns have equal codes iff they are isomorphic.

    Only orderings that list the invariant vertex classes in sorted order
    are visited, which stays exact: an isomorphism maps such orderings
    onto such orderings with equal cells, and ``label_row`` is the same
    for all of them.  The minimizing orders differ exactly by
    automorphisms, so two canonical positions share an orbit iff the same
    vertices get placed at both; ``orbits`` partitions the *positions*
    (the canonical form's vertices), each orbit sorted, in order of
    smallest member.
    """
    n = p.num_vertices
    if n == 0:
        return (0, (), ()), (), []
    color = _color_matrix(p)
    classes = _vertex_classes(p, color)
    blocks: dict[tuple, list[int]] = {}
    for u in sorted(range(n), key=classes.__getitem__):
        blocks.setdefault(classes[u], []).append(u)
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best: tuple | None = None
    for order in _class_major_orders(list(blocks.values())):
        cells = tuple([color[order[i]][order[j]] for i, j in upper])
        if best is None or cells < best:
            best, first, images = cells, order, [{u} for u in order]
        elif cells == best:
            for at, u in zip(images, order):
                at.add(u)
    orbits: dict[frozenset, list[int]] = {}
    for i, at in enumerate(images):
        orbits.setdefault(frozenset(at), []).append(i)
    code = (n, best, tuple(classes[u][2] for u in first))
    return code, first, list(orbits.values())


def _class_major_orders(blocks: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Every concatenation of one permutation per block, lexicographically."""
    if not blocks:
        yield ()
        return
    for head in permutations(blocks[0]):
        for rest in _class_major_orders(blocks[1:]):
            yield head + rest


def canonical_code(p: Pattern) -> tuple:
    """Isomorphism-invariant canonical code (see :func:`canonical_sweep`)."""
    return canonical_sweep(p)[0]


def canonical_permutation(p: Pattern) -> tuple[tuple, tuple[int, ...]]:
    """Canonical code plus one ordering achieving it.

    Returns ``(code, order)`` where ``order[i]`` is the original vertex
    placed at canonical position ``i`` — the correspondence FSM needs to
    fold a match's vertices into the canonical pattern's domains.
    """
    return canonical_sweep(p)[:2]


def pattern_from_code(code: tuple) -> Pattern:
    """Rebuild the canonical representative a code describes."""
    n, cells, label_row = code
    q = Pattern(num_vertices=n)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if cells[idx] == 1:
                q.add_edge(i, j)
            elif cells[idx] == 2:
                q.add_anti_edge(i, j)
            idx += 1
    for i, cell in enumerate(label_row):
        if cell != _WILDCARD:
            q.set_label(i, cell[1])
    return q


def canonical_form(p: Pattern) -> Pattern:
    """A canonical representative: rebuild the pattern from its code."""
    return pattern_from_code(canonical_code(p))
