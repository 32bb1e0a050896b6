"""Packed-int/array state representations for the compiled timing path.

Two hot per-object structures get flat encodings:

* :class:`NodeSet` — sharer sets as a single int bitmask.  Node ids are
  small (a machine has a handful of nodes), so membership, union and
  difference are one machine-word operation, and iteration is *always
  ascending* — which also makes every sharers walk deterministic instead
  of depending on CPython hash-set ordering.  Adopted by the directory on
  both paths (protocol code is shared between reference and compiled).
* :class:`PackedTagTable` — per-node block→tag map as a ``bytearray``
  indexed by global block id (tag values are the :class:`AccessTag` ints
  0/1/2).  The replay hot loop reads raw bytes; the full
  :class:`~repro.tempest.tags.TagTable` API is preserved for protocol
  code.  Adopted only on ``FastEngine`` machines so the reference path
  keeps its dict-backed, independently-validated representation.

Both are differentially property-tested against their reference
counterparts in ``tests/fastpath/test_properties.py``.  This module is
imported by protocol code (``NodeSet``), so it stays dependency-free.
"""

from __future__ import annotations

from collections.abc import Set
from typing import Iterable, Iterator

from repro.tempest.tags import AccessTag
from repro.util.errors import SimulationError

# ---------------------------------------------------------------------------
# NodeSet
# ---------------------------------------------------------------------------


class NodeSet(Set):
    """A mutable set of small non-negative ints stored as one bitmask.

    Subclassing :class:`collections.abc.Set` supplies the full operator
    algebra (including reflected forms, so ``plain_set - node_set`` works)
    on top of the three primitives below; results of binary operators are
    rebuilt as :class:`NodeSet` via ``_from_iterable``.  Iteration is in
    ascending id order, making consumers deterministic by construction.
    """

    __slots__ = ("_mask",)

    def __init__(self, iterable: Iterable[int] = ()) -> None:
        mask = 0
        for i in iterable:
            if i < 0:
                raise ValueError(f"NodeSet members must be >= 0, got {i}")
            mask |= 1 << i
        self._mask = mask

    @classmethod
    def _from_iterable(cls, it: Iterable[int]) -> "NodeSet":
        return cls(it)

    # -- set protocol ---------------------------------------------------------

    def __contains__(self, i: object) -> bool:
        return isinstance(i, int) and i >= 0 and (self._mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self._mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    # sets compare by value and are unhashable, mirroring builtin set
    __hash__ = None  # type: ignore[assignment]

    # -- mutation (the directory treats sharers as a mutable set) -------------

    def add(self, i: int) -> None:
        if i < 0:
            raise ValueError(f"NodeSet members must be >= 0, got {i}")
        self._mask |= 1 << i

    def discard(self, i: int) -> None:
        if i >= 0:
            self._mask &= ~(1 << i)

    def clear(self) -> None:
        self._mask = 0

    def update(self, other: Iterable[int]) -> None:
        if isinstance(other, NodeSet):
            self._mask |= other._mask
        else:
            for i in other:
                self.add(i)

    def intersection_update(self, other: Iterable[int]) -> None:
        if not isinstance(other, NodeSet):
            other = NodeSet(other)
        self._mask &= other._mask

    def copy(self) -> "NodeSet":
        dup = NodeSet()
        dup._mask = self._mask
        return dup

    def __repr__(self) -> str:
        return f"NodeSet({sorted(self)})"


# ---------------------------------------------------------------------------
# PackedTagTable
# ---------------------------------------------------------------------------

#: byte value -> AccessTag, index-aligned with the enum's int values
_TAG_OF = (AccessTag.INVALID, AccessTag.READ_ONLY, AccessTag.READ_WRITE)


class PackedTagTable:
    """Block→tag map as a byte-per-block array (compiled-path tag storage).

    API-compatible with :class:`~repro.tempest.tags.TagTable`; missing or
    out-of-range blocks are INVALID, so capacity is an optimization, not a
    correctness requirement (:meth:`reserve` presizes; :meth:`set` grows).
    ``clear`` zeroes *in place* — crash recovery resets tags between
    processor steps and the storage object must keep its identity.

    The replay hot loop bypasses this API and reads ``_data`` directly;
    everything else (protocols, checkpointing, the monitor) goes through
    the same methods the reference table offers.
    """

    __slots__ = ("node", "_data", "_count")

    def __init__(self, node: int):
        self.node = node
        self._data = bytearray()
        self._count = 0  # nonzero bytes, maintained incrementally

    def reserve(self, n_blocks: int) -> None:
        """Grow capacity to ``n_blocks`` so hot-loop reads never miss."""
        if n_blocks > len(self._data):
            self._data.extend(bytes(n_blocks - len(self._data)))

    def get(self, block: int) -> AccessTag:
        data = self._data
        if 0 <= block < len(data):
            return _TAG_OF[data[block]]
        return AccessTag.INVALID

    def set(self, block: int, tag: AccessTag) -> None:
        v = int(tag)
        data = self._data
        if block >= len(data):
            if v == 0:
                return
            # grow with slack so block-by-block installs don't realloc
            self._data.extend(bytes(block + 64 - len(data)))
            data = self._data
        old = data[block]
        if old != v:
            self._count += (v != 0) - (old != 0)
            data[block] = v

    def permits(self, block: int, kind: str) -> bool:
        data = self._data
        t = data[block] if 0 <= block < len(data) else 0
        if kind == "r":
            return t != 0
        if kind == "w":
            return t == 2
        raise SimulationError(f"unknown access kind {kind!r}")

    def downgrade(self, block: int) -> None:
        """READ_WRITE -> READ_ONLY (keep data, lose write permission)."""
        data = self._data
        if 0 <= block < len(data) and data[block] == 2:
            data[block] = 1

    def invalidate(self, block: int) -> None:
        self.set(block, AccessTag.INVALID)

    def blocks_with_tag(self, tag: AccessTag) -> list[int]:
        v = int(tag)
        return [b for b, byte in enumerate(self._data) if byte == v and byte]

    def items(self) -> Iterator[tuple[int, AccessTag]]:
        """Yield ``(block, tag)`` for non-INVALID blocks, ascending."""
        for b, byte in enumerate(self._data):
            if byte:
                yield b, _TAG_OF[byte]

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        data = self._data
        data[:] = bytes(len(data))  # in place: storage identity survives
        self._count = 0
