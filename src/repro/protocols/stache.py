"""Stache: Blizzard's default coherence protocol (paper §3.1).

A directory-based, sequentially-consistent, write-invalidate protocol.
Read faults obtain a read-only copy from home (recalling a remote writer's
copy first); write faults invalidate all outstanding copies before a
writable copy is granted.  This reproduces the four-message
producer-consumer exchange of §3.2 whose cost motivates the predictive
protocol.

Home-side transitions are declared teapot-style; see
:mod:`repro.protocols.base` for the cache side and timing discipline.
"""

from __future__ import annotations

from repro.protocols.base import BaseProtocol
from repro.protocols.directory import DirEntry, DirState
from repro.protocols.messages import MessageKind as MK
from repro.protocols.teapot import transition
from repro.tempest.network import Message
from repro.tempest.tags import AccessTag
from repro.util.errors import ProtocolError


class StacheProtocol(BaseProtocol):
    """The write-invalidate baseline protocol."""

    name = "stache"

    # -- read requests --------------------------------------------------------

    @transition(DirState.IDLE, MK.GET_RO)
    @transition(DirState.SHARED, MK.GET_RO)
    def read_from_home(self, entry: DirEntry, msg: Message, t: float) -> None:
        """Home memory is current: satisfy the read directly."""
        self.grant_ro(entry, msg.src, t)

    @transition(DirState.EXCLUSIVE, MK.GET_RO)
    def read_recalls_writer(self, entry: DirEntry, msg: Message, t: float) -> None:
        """A remote writer holds the block: recall it, then satisfy the read.

        Stache invalidates the producer's copy (paper §3.2 steps 2-3) rather
        than downgrading it.
        """
        self._recall(entry, msg, "r", t)

    # -- write requests --------------------------------------------------------

    @transition(DirState.IDLE, MK.GET_RW)
    def write_from_home(self, entry: DirEntry, msg: Message, t: float) -> None:
        self.grant_rw(entry, msg.src, t)

    @transition(DirState.SHARED, MK.GET_RW)
    def write_invalidates_readers(self, entry: DirEntry, msg: Message, t: float) -> None:
        """Invalidate all read-only copies, then grant the writable copy."""
        _, others = entry.demand(msg.src, "w")
        if not others:
            # The requester is the only sharer: upgrade immediately.
            self.grant_rw(entry, msg.src, t)
            return
        entry.state = DirState.BUSY_INV
        entry.in_service = msg.src
        entry.acks_needed = len(others)
        for sharer in others:
            self.send(
                Message(MK.INV, src=entry.home, dst=sharer, block=entry.block), t
            )
        # The requester's own stale RO copy (if any) is superseded by the
        # RW grant; drop it from the sharer list now.
        entry.sharers.discard(msg.src)

    @transition(DirState.EXCLUSIVE, MK.GET_RW)
    def write_recalls_writer(self, entry: DirEntry, msg: Message, t: float) -> None:
        self._recall(entry, msg, "w", t)

    def _recall(self, entry: DirEntry, msg: Message, kind: str, t: float) -> None:
        """Recall the owner ``demand`` names; its writeback completes the
        ``kind`` ("r"/"w") request."""
        owner, _ = entry.demand(msg.src, kind)
        if owner == msg.src:
            access = "read" if kind == "r" else "write"
            raise ProtocolError(f"owner {msg.src} {access}-faulted on its own block")
        if kind == "r":
            entry.state, recall = DirState.BUSY_RECALL_RO, MK.RECALL_RO
        else:
            entry.state, recall = DirState.BUSY_RECALL_RW, MK.RECALL_INV
        entry.in_service = msg.src
        self.send(Message(recall, src=entry.home, dst=owner, block=entry.block), t)

    # -- responses ----------------------------------------------------------------

    @transition(DirState.BUSY_RECALL_RO, MK.WB_DATA)
    def writeback_then_read(self, entry: DirEntry, msg: Message, t: float) -> None:
        """The recalled data arrived; home memory is current again."""
        requester = self._writeback(entry, msg)
        # Home memory holds the data again; home may read it.
        self.machine.node(entry.home).tags.set(entry.block, AccessTag.READ_WRITE)
        self.grant_ro(entry, requester, t)

    @transition(DirState.BUSY_RECALL_RW, MK.WB_DATA)
    def writeback_then_write(self, entry: DirEntry, msg: Message, t: float) -> None:
        self.grant_rw(entry, self._writeback(entry, msg), t)

    def _writeback(self, entry: DirEntry, msg: Message) -> int:
        """Reclaim the recalled copy; returns the requester in service."""
        if msg.src != entry.owner:
            raise ProtocolError(f"writeback from non-owner {msg.src}: {entry}")
        requester, entry.in_service = entry.in_service, None
        entry.reclaim()
        return requester

    @transition(DirState.BUSY_INV, MK.ACK)
    def collect_ack(self, entry: DirEntry, msg: Message, t: float) -> None:
        entry.sharers.discard(msg.src)
        entry.acks_needed -= 1
        if entry.acks_needed < 0:
            raise ProtocolError(f"unexpected ACK from {msg.src}: {entry}")
        if entry.acks_needed == 0:
            requester, entry.in_service = entry.in_service, None
            self.grant_rw(entry, requester, t)

    # -- requests arriving while busy queue up ---------------------------------------

    @transition(DirState.BUSY, MK.GET_RO)
    @transition(DirState.BUSY, MK.GET_RW)
    def busy_queues_request(self, entry: DirEntry, msg: Message, t: float) -> None:
        self.queue_pending(entry, msg)
