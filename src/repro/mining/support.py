"""MNI support computation: bitset-backed pattern domains (§5.5).

FSM measures pattern frequency with the *minimum node image* (MNI) support:
the minimum, over pattern vertices, of how many distinct data vertices
appear at that vertex across all matches.  MNI is anti-monotonic, which is
what lets FSM prune extension candidates (§2.1).

Peregrine implements domains as vectors of compressed (Roaring) bitmaps.
Our one domain set, :class:`Bitset`, wraps an arbitrary-precision
integer — CPython's fastest exact-set union primitive — with the same
logical interface: set bit, or-merge, popcount.  Domains are
engine-agnostic sinks: FSM feeds them whole match arrays from
:meth:`repro.core.session.MiningSession.match_batches` (vectorized
:meth:`Domain.update_batch`); :meth:`Domain.update` is the per-match
sink for user callbacks.

Symmetry breaking interaction (§6.6): with symmetry breaking, each
automorphism class of matches is seen once, so the raw per-vertex domains
are projections onto canonical matches.  The *full* domain of a vertex is
the union of raw domains across its automorphism orbit (for any match m
and automorphism sigma, m∘sigma is a match), so :meth:`Domain.support`
merges orbits once at the end — one domain write per unique match during
matching, exactly the property Figure 10 credits for FSM's 3x win.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["Bitset", "Domain"]


class Bitset:
    """Dynamic bitset over non-negative integers, backed by a Python int."""

    __slots__ = ("_bits",)

    def __init__(self, values: Iterable[int] = ()):
        # int(): a numpy integer would shift in 64 bits and wrap to 0.
        bits = 0
        for v in values:
            bits |= 1 << int(v)
        self._bits = bits

    def add(self, value: int) -> None:
        """Set one bit."""
        self._bits |= 1 << int(value)

    @classmethod
    def from_mask(cls, mask) -> "Bitset":
        """The set of indices at which a boolean array is true."""
        out = cls()
        packed = np.packbits(mask, bitorder="little")
        out._bits = int.from_bytes(packed.tobytes(), "little")
        return out

    def __contains__(self, value: int) -> bool:
        return value >= 0 and (self._bits >> int(value)) & 1 == 1

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __or__(self, other: "Bitset") -> "Bitset":
        out = Bitset()
        out._bits = self._bits | other._bits
        return out

    def __ior__(self, other: "Bitset") -> "Bitset":
        self._bits |= other._bits
        return self

    def __and__(self, other: "Bitset") -> "Bitset":
        out = Bitset()
        out._bits = self._bits & other._bits
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitset):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def to_list(self) -> list[int]:
        """Sorted member list: the inverse of :meth:`from_mask`."""
        raw = self._bits.to_bytes((self._bits.bit_length() + 7) >> 3, "little")
        mask = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return np.flatnonzero(mask).tolist()

    def memory_bytes(self) -> int:
        """Logical footprint: one bit per position up to the highest set."""
        return max(1, self._bits.bit_length() // 8 + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bitset({self.to_list()!r})"


class Domain:
    """Per-pattern-vertex domains of one pattern; yields MNI support.

    ``orbits`` partitions the pattern's vertices into automorphism orbits
    (see :func:`repro.core.symmetry.orbit_partition`); pass the trivial
    partition (singletons) when matches already include all automorphic
    copies (the PRG-U mode).
    """

    __slots__ = ("_domains", "_orbits", "writes")

    def __init__(
        self, num_vertices: int, orbits: Sequence[Sequence[int]] | None = None
    ):
        self._domains = [Bitset() for _ in range(num_vertices)]
        if orbits is None:
            orbits = [[u] for u in range(num_vertices)]
        self._orbits = [list(orbit) for orbit in orbits]
        self.writes = 0  # total domain insertions (the Fig 10 FSM metric)

    def update(self, mapping: Sequence[int]) -> None:
        """Record one match: ``mapping[u]`` is the data vertex at ``u``."""
        domains = self._domains
        for u, v in enumerate(mapping):
            if v >= 0:
                domains[u].add(v)
        self.writes += len(mapping)

    def update_batch(self, mappings) -> None:
        """Record a batch of matches from a ``(rows, vertices)`` array.

        The batched counterpart of :meth:`update` for the frontier
        engine's match arrays: each column is scattered into a boolean
        mask whose packed bits are or-ed into the column's bitset in one
        step (:meth:`Bitset.from_mask`), so no Python runs per
        vertex.  Negative entries (anti-vertex columns) are skipped.
        ``writes`` advances by ``rows * vertices`` — the same logical
        insertion count the per-match path records — keeping the Figure
        10 aggregation-write metric engine-independent.
        """
        rows, width = mappings.shape
        if rows == 0:
            return
        size = max(int(mappings.max()) + 1, 0)
        for u, domain in enumerate(self._domains):
            column = mappings[:, u]
            mask = np.zeros(size, dtype=bool)
            mask[column[column >= 0]] = True
            domain |= Bitset.from_mask(mask)
        self.writes += rows * width

    def vertex_domain(self, u: int) -> Bitset:
        """Full domain of vertex ``u``: orbit-merged raw domains."""
        for orbit in self._orbits:
            if u in orbit:
                merged = Bitset()
                for w in orbit:
                    merged |= self._domains[w]
                return merged
        return self._domains[u]

    def support(self) -> int:
        """MNI support: minimum full-domain size over pattern vertices."""
        if not self._domains:
            return 0
        sizes = []
        for orbit in self._orbits:
            merged = Bitset()
            for w in orbit:
                merged |= self._domains[w]
            size = len(merged)
            sizes.extend(size for _ in orbit)
        return min(sizes) if sizes else 0

    def merge_from(self, other: "Domain") -> None:
        """Or-merge another domain table (thread-local aggregation, §5.4)."""
        for mine, theirs in zip(self._domains, other._domains):
            mine |= theirs
        self.writes += other.writes

    def memory_bytes(self) -> int:
        """Logical bitmap footprint (feeds the Fig 13 FSM memory bars)."""
        return sum(d.memory_bytes() for d in self._domains)

    def __len__(self) -> int:
        return len(self._domains)
