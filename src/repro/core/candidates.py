"""Sorted-sequence set operations used by the reference interpreter.

All adjacency rows in :class:`~repro.graph.graph.DataGraph` are sorted, so
candidate generation reduces to merge-style intersections, differences and
binary-search range restriction — the operations §4 builds everything from.
The functions here are the interpreter's hot loop.  They accept any sorted
sequence (the graph's array slices included) and always return plain lists;
they are fastest on lists, because ``bisect`` over Python ints is the fastest
exact-set primitive in CPython — which is why :mod:`repro.core.engine`
converts each row it touches with ``.tolist()`` once per run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

__all__ = [
    "bounded",
    "contains",
    "intersect",
    "intersect_many",
    "difference",
    "intersect_count",
]


def bounded(values: Sequence[int], lo: int, hi: int) -> list[int]:
    """Elements v of a sorted list with ``lo < v < hi`` (exclusive bounds)."""
    return list(values[bisect_right(values, lo): bisect_left(values, hi)])


def contains(values: Sequence[int], x: int) -> bool:
    """Binary-search membership in a sorted list."""
    i = bisect_left(values, x)
    return i < len(values) and values[i] == x


def intersect(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Intersection of two sorted lists.

    Walks the shorter list and binary-searches the longer one (galloping
    beats a full merge when the lists are skewed, which adjacency lists
    of high- vs low-degree vertices usually are).
    """
    if len(a) > len(b):
        a, b = b, a
    # len() checks, not truthiness: graph rows are numpy slices, whose
    # bool() is ambiguous beyond one element.
    if len(a) == 0 or len(b) == 0:
        return []
    out = []
    nb = len(b)
    lo = 0
    for x in a:
        lo = bisect_left(b, x, lo)
        if lo >= nb:
            break
        if b[lo] == x:
            out.append(x)
            lo += 1
    return out


def intersect_many(lists: Sequence[Sequence[int]]) -> list[int]:
    """Intersection of any number of sorted lists (smallest-first order)."""
    if len(lists) == 0:
        return []
    ordered = sorted(lists, key=len)
    result: list[int] = list(ordered[0])
    for other in ordered[1:]:
        if not result:
            break
        result = intersect(result, other)
    return result


def difference(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sorted list difference ``a \\ b``."""
    if len(a) == 0:
        return []
    if len(b) == 0:
        return list(a)
    out = []
    nb = len(b)
    lo = 0
    for x in a:
        lo = bisect_left(b, x, lo)
        if lo >= nb or b[lo] != x:
            out.append(x)
    return out


def intersect_count(a: Sequence[int], b: Sequence[int]) -> int:
    """|a ∩ b| for sorted lists, without materializing the intersection."""
    if len(a) > len(b):
        a, b = b, a
    count = 0
    nb = len(b)
    lo = 0
    for x in a:
        lo = bisect_left(b, x, lo)
        if lo >= nb:
            break
        if b[lo] == x:
            count += 1
            lo += 1
    return count
