"""Packed-int sharer sets for the directory.

:class:`NodeSet` stores a sharer set as a single int bitmask.  Node ids are
small (a machine has a handful of nodes), so membership, union and
difference are one machine-word operation, and iteration is *always
ascending* — which also makes every sharers walk deterministic instead
of depending on CPython hash-set ordering.

Property-tested against builtin ``set`` in
``tests/fastpath/test_properties.py``.  This module is imported by
protocol code, so it stays dependency-free.  (The other packed structure,
the byte-array tag table, is :class:`repro.tempest.tags.TagTable`.)
"""

from __future__ import annotations

from collections.abc import Set
from typing import Iterable, Iterator


class NodeSet(Set):
    """A mutable set of small non-negative ints stored as one bitmask.

    Subclassing :class:`collections.abc.Set` supplies the full operator
    algebra (including reflected forms, so ``plain_set - node_set`` works)
    on top of the three primitives below; results of binary operators are
    rebuilt as :class:`NodeSet` via ``_from_iterable``.  Against another
    ``NodeSet`` (or a builtin set of ints, see :func:`_mask_of`) the
    operators are one int operation on the masks instead.  Iteration is in
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

    # -- algebra: int ops on masks where exact, the Set mixin otherwise --------

    @classmethod
    def _from_mask(cls, mask: int) -> "NodeSet":
        dup = cls.__new__(cls)
        dup._mask = mask
        return dup

    def __sub__(self, other):
        mask = _mask_of(other)
        if mask is None:
            return super().__sub__(other)
        return self._from_mask(self._mask & ~mask)

    def __and__(self, other):
        mask = _mask_of(other)
        if mask is None:
            return super().__and__(other)
        return self._from_mask(self._mask & mask)

    def __or__(self, other):
        # a builtin set may hold members no NodeSet can; the mixin rejects them
        if isinstance(other, NodeSet):
            return self._from_mask(self._mask | other._mask)
        return super().__or__(other)

    def __le__(self, other):
        mask = _mask_of(other)
        if mask is None:
            return super().__le__(other)
        return self._mask & ~mask == 0

    def isdisjoint(self, other) -> bool:
        mask = _mask_of(other)
        if mask is None:
            return super().isdisjoint(other)
        return self._mask & mask == 0

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
        return self._from_mask(self._mask)

    def __repr__(self) -> str:
        return f"NodeSet({sorted(self)})"


def _mask_of(other) -> int | None:
    """``other``'s members as a bitmask, or None to defer to the Set mixin.

    Exact for a :class:`NodeSet` and for a builtin set of plain ints (what
    the protocols and the monitor pass: ``sharers - {home}``); negative
    ints can be members of no NodeSet, so they drop out of a difference,
    intersection or subset test.  Anything else — other iterables, sets
    holding bools or floats that *equal* a node id — keeps the mixin's
    element-by-element semantics.
    """
    if isinstance(other, NodeSet):
        return other._mask
    if isinstance(other, (set, frozenset)):
        mask = 0
        for i in other:
            if type(i) is not int:
                return None
            if i >= 0:
                mask |= 1 << i
        return mask
    return None
