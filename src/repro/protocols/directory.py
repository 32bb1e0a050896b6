"""Directory state kept at each block's home node.

"Each shared-memory cache block in the system is mapped to its home node,
where it resides initially.  The home node also maintains a block's directory
information, which lists multiple readers or a single writer, and is used to
maintain consistency." (paper §3.1)

Stable states:

* ``IDLE``      — only the home's own copy exists (home tag READ_WRITE).
* ``SHARED``    — home has data (home tag READ_ONLY); ``sharers`` hold
  read-only copies.
* ``EXCLUSIVE`` — a single remote ``owner`` holds the writable copy; the
  home's own tag is INVALID.

Transient states (a request is in flight against this block; later requests
queue in ``pending``):

* ``BUSY_RECALL_RO``  — awaiting WB_DATA so a read can be satisfied.
* ``BUSY_RECALL_RW``  — awaiting WB_DATA so a write can be satisfied.
* ``BUSY_INV``        — awaiting invalidation ACKs before granting RW.

An entry's sharers are a :class:`NodeSet`, the packed-int set defined here.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Set
from dataclasses import dataclass, field
from typing import Collection, Deque, Iterable, Iterator

#: placeholder requester installed by crash recovery when the node being
#: serviced by a busy entry died: the completing transition still runs (so
#: the entry returns to a stable state through its normal path), but the
#: final grant is suppressed (see BaseProtocol.grant_ro / grant_rw guards).
DISCARDED = -1


class DirState:
    IDLE = "IDLE"
    SHARED = "SHARED"
    EXCLUSIVE = "EXCLUSIVE"
    BUSY_RECALL_RO = "BUSY_RECALL_RO"
    BUSY_RECALL_RW = "BUSY_RECALL_RW"
    BUSY_INV = "BUSY_INV"

    STABLE = frozenset({IDLE, SHARED, EXCLUSIVE})
    BUSY = frozenset({BUSY_RECALL_RO, BUSY_RECALL_RW, BUSY_INV})


# -- sharer sets ---------------------------------------------------------------
#
# A sharer set is stored as a single int bitmask.  Node ids are small (a
# machine has a handful of nodes), so membership, union and difference are
# one machine-word operation, and iteration is *always ascending* — which
# also makes every sharers walk deterministic instead of depending on
# CPython hash-set ordering.  Property-tested against builtin ``set`` in
# ``tests/sim/test_properties.py``.


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


@dataclass
class PendingRequest:
    """A request queued while the directory entry is busy."""

    kind: str  # GET_RO / GET_RW
    requester: int


@dataclass
class DirEntry:
    """Directory record for one block."""

    block: int
    home: int
    state: str = DirState.IDLE
    #: read-only copy holders as a packed bitmask set; iteration is always
    #: in ascending node order, so every sharers walk (invalidation rounds,
    #: crash repair, write-update pushes) is deterministic by construction
    sharers: NodeSet = field(default_factory=NodeSet)
    owner: int | None = None
    #: requester being serviced while in a BUSY state
    in_service: int | None = None
    acks_needed: int = 0
    pending: Deque[PendingRequest] = field(default_factory=deque)

    def permits(self, node: int, kind: str) -> bool:
        """Whether ``node`` holds a copy allowing ``kind`` ("r"/"w") in this
        stable state (any other than IDLE, SHARED and EXCLUSIVE is taken for
        write-update's UPDATE_SHARED: the home keeps its writable copy)."""
        state = self.state
        if state == DirState.EXCLUSIVE:
            return node == self.owner
        if node == self.home:
            return kind == "r" or state != DirState.SHARED
        return kind == "r" and state != DirState.IDLE and node in self.sharers

    # -- the stable directory step ------------------------------------------
    #
    # A miss in a stable state is served in three steps: home takes back
    # what ``demand`` names (recalls the owner, invalidates the sharers),
    # ``reclaim`` makes home memory current, and a grant installs the new
    # copy.  The protocols' handlers, crash repair, the pre-send planner and
    # the model walk all run these; only the handlers add transient states.

    def demand(self, node: int, kind: str) -> tuple[int | None, Collection[int]]:
        """What home must take back before granting ``node`` a ``kind``
        ("r"/"w") copy: the owner to recall (or None), and the sharers to
        invalidate (ascending)."""
        state = self.state
        if state == DirState.EXCLUSIVE:
            return self.owner, ()
        if kind == "w" and state == DirState.SHARED:
            return None, self.sharers - {node}
        return None, ()

    def reclaim(self) -> None:
        """Home memory is current again: no remote owner, IDLE."""
        self.owner = None
        self.state = DirState.IDLE

    def grant_read(self, node: int, shared_state: str) -> None:
        """``node`` holds a read-only copy; ``shared_state`` is the
        protocol's state for remote read-only copies (home's own read
        needs no entry)."""
        if node != self.home:
            self.sharers.add(node)
            self.state = shared_state

    def grant_write(self, node: int) -> None:
        """``node`` holds the only copy, writable (home's: IDLE)."""
        self.sharers.clear()
        if node == self.home:
            self.reclaim()
        else:
            self.owner = node
            self.state = DirState.EXCLUSIVE

    def __repr__(self) -> str:
        own = f" owner={self.owner}" if self.owner is not None else ""
        shr = f" sharers={sorted(self.sharers)}" if self.sharers else ""
        pend = f" pending={len(self.pending)}" if self.pending else ""
        return f"<Dir blk={self.block}@{self.home} {self.state}{own}{shr}{pend}>"


class Directory:
    """All directory entries owned by the protocol instance.

    Entries are created lazily in IDLE: until the first remote request,
    a block exists only as home memory.
    """

    def __init__(self, home_of) -> None:
        self._home_of = home_of
        self._entries: dict[int, DirEntry] = {}

    def entry(self, block: int) -> DirEntry:
        e = self._entries.get(block)
        if e is None:
            e = DirEntry(block=block, home=self._home_of(block))
            self._entries[block] = e
        return e

    def known(self) -> list[DirEntry]:
        return list(self._entries.values())

    def purge_home(self, node: int) -> int:
        """Crash recovery: drop every entry homed at a dead node.

        The dead node's directory memory is gone with it; survivors' copies
        are re-registered from their tag tables when the node restarts
        (see BaseProtocol.rebuild_home_state).  Returns the purge count.
        """
        doomed = [b for b, e in self._entries.items() if e.home == node]
        for b in doomed:
            del self._entries[b]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)
