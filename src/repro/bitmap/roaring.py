"""The :class:`RoaringBitmap`: chunked compressed set of 32-bit ints.

Implements the subset of the roaring interface that MNI domains need —
single-value insertion, membership, in-place and out-of-place union,
intersection, cardinality, iteration, equality, and a faithful
``memory_bytes`` accounting — with per-chunk adaptive containers from
:mod:`repro.bitmap.containers`.

Interface-compatible with :class:`repro.mining.support.Bitset`, so it can
back :class:`repro.mining.support.Domain` via its ``bitset_factory``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .containers import (
    ArrayContainer,
    BitmapContainer,
    CHUNK_BITS,
    CHUNK_SIZE,
    container_from_values,
)

__all__ = ["RoaringBitmap"]

_LOW_MASK = (1 << CHUNK_BITS) - 1
_CHUNK_BYTES = CHUNK_SIZE // 8


class RoaringBitmap:
    """Compressed bitmap over non-negative integers.

    Values are split into a high-16-bit chunk key and a low-16-bit offset;
    each chunk is stored in whichever container (array / bitmap / run) is
    cheapest for its contents.  New chunks start as arrays and upgrade to
    bitmaps when they pass the roaring cardinality threshold; full
    re-optimization (including run detection) happens on
    :meth:`optimize`, which unions call on their results.
    """

    __slots__ = ("_chunks",)

    def __init__(self, values: Iterable[int] = ()):
        self._chunks: dict[int, object] = {}
        for v in values:
            self.add(v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, value: int) -> None:
        """Insert one value (non-negative)."""
        if value < 0:
            raise ValueError("RoaringBitmap holds non-negative integers only")
        key = value >> CHUNK_BITS
        low = value & _LOW_MASK
        chunk = self._chunks.get(key)
        if chunk is None:
            chunk = ArrayContainer()
            self._chunks[key] = chunk
        chunk.add(low)
        # Array chunks that outgrow the threshold upgrade immediately;
        # run detection is deferred to optimize() as in roaring.
        if chunk.kind == "array" and chunk.memory_bytes() > 1 << 13:
            self._chunks[key] = container_from_values(chunk.values())

    @classmethod
    def from_sorted(cls, values: Iterable[int]) -> "RoaringBitmap":
        """Bulk-build from a sorted, duplicate-free iterable.

        The fast path for compiling CSR adjacency rows into membership
        bitmaps: consecutive values sharing a high-16-bit key are grouped
        in one pass and each chunk goes straight through
        :func:`container_from_values`, which picks the cheapest
        representation — no per-value ``add`` churn or array-to-bitmap
        upgrades along the way.
        """
        out = cls()
        chunks = out._chunks
        cur_key = -1
        cur: list[int] = []
        for v in values:
            v = int(v)
            if v < 0:
                raise ValueError(
                    "RoaringBitmap holds non-negative integers only"
                )
            key = v >> CHUNK_BITS
            if key != cur_key:
                if cur:
                    chunks[cur_key] = container_from_values(cur)
                cur_key = key
                cur = []
            cur.append(v & _LOW_MASK)
        if cur:
            chunks[cur_key] = container_from_values(cur)
        return out

    @classmethod
    def from_mask(cls, mask) -> "RoaringBitmap":
        """The set of indices at which a boolean numpy array is true."""
        return cls.from_sorted(mask.nonzero()[0].tolist())

    def optimize(self) -> "RoaringBitmap":
        """Re-pick the cheapest container per chunk (``runOptimize``)."""
        for key, chunk in list(self._chunks.items()):
            self._chunks[key] = chunk.optimized()
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, value: int) -> bool:
        if value < 0:
            return False
        chunk = self._chunks.get(value >> CHUNK_BITS)
        return chunk is not None and (value & _LOW_MASK) in chunk

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self._chunks.values())

    def __iter__(self) -> Iterator[int]:
        for key in sorted(self._chunks):
            base = key << CHUNK_BITS
            for low in self._chunks[key].values():
                yield base + low

    def to_list(self) -> list[int]:
        """Sorted member list (tests / small domains only)."""
        return list(self)

    def to_dense_bytes(self, num_bits: int) -> bytes:
        """Flatten to ``ceil(num_bits / 8)`` little-endian packed bytes.

        Bit ``v`` of the result is set iff ``v in self``; members at or
        beyond ``num_bits`` are ignored.  Chunk boundaries are byte
        aligned (the chunk size is a multiple of 8), so bitmap containers
        splice their payload in directly and sparse containers build one
        chunk-local integer first — this is how the accelerated engines
        compile hub neighborhoods into numpy bit rows.
        """
        nbytes = (num_bits + 7) >> 3
        buf = bytearray(nbytes)
        for key, chunk in self._chunks.items():
            base = (key << CHUNK_BITS) >> 3
            if base >= nbytes:
                continue
            if isinstance(chunk, BitmapContainer):
                bits = chunk._bits
            else:
                bits = 0
                for low in chunk.values():
                    bits |= 1 << low
            payload = bits.to_bytes(_CHUNK_BYTES, "little")
            end = min(base + _CHUNK_BYTES, nbytes)
            buf[base:end] = payload[: end - base]
        if nbytes and num_bits & 7:
            buf[-1] &= (1 << (num_bits & 7)) - 1
        return bytes(buf)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(v in other for v in self)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __bool__(self) -> bool:
        return bool(self._chunks) and any(
            len(chunk) for chunk in self._chunks.values()
        )

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------

    def __or__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        out = RoaringBitmap()
        keys = set(self._chunks) | set(other._chunks)
        for key in keys:
            a = self._chunks.get(key)
            b = other._chunks.get(key)
            if a is None:
                out._chunks[key] = b.optimized()
            elif b is None:
                out._chunks[key] = a.optimized()
            else:
                out._chunks[key] = a.union(b)
        return out

    def __ior__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        for key, b in other._chunks.items():
            a = self._chunks.get(key)
            if a is None:
                self._chunks[key] = b.optimized()
            else:
                self._chunks[key] = a.union(b)
        return self

    def __and__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        out = RoaringBitmap()
        for key, a in self._chunks.items():
            b = other._chunks.get(key)
            if b is None:
                continue
            common = a.intersect(b)
            if len(common):
                out._chunks[key] = common
        return out

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Serialized size: container payloads + 4 bytes/chunk of keys."""
        return sum(
            4 + chunk.memory_bytes() for chunk in self._chunks.values()
        ) or 1

    def container_kinds(self) -> dict[str, int]:
        """Histogram of container kinds in use (inspection / tests)."""
        hist: dict[str, int] = {}
        for chunk in self._chunks.values():
            hist[chunk.kind] = hist.get(chunk.kind, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoaringBitmap({len(self)} values, "
            f"{len(self._chunks)} chunks, {self.memory_bytes()} bytes)"
        )
