"""A write-update protocol: the hand-optimized SPMD baseline's custom protocol.

The paper compares Barnes against "a hand-optimized SPMD version ... that
uses a write-update protocol for efficient shared-memory communication on
the CM-5" (Falsafi et al., SC'94).  In that style, consumers register for a
block by reading it once; thereafter the producer's new values are *pushed*
to all registered consumers at the end of each phase in coalesced bulk
messages, so consumers never miss again.  Update protocols do not preserve
sequential consistency in general (paper §3.2), which is why they are a
hand-written, application-specific tool rather than the default.

Constraints of this model (matching SPMD usage): writes must be to blocks
the writer is home for (producers own their data).  A remote write fault
raises :class:`ProtocolError` so a mis-ported application fails loudly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.blocks import coalesce_blocks
from repro.protocols.base import BaseProtocol
from repro.protocols.directory import DirEntry
from repro.protocols.messages import MessageKind as MK
from repro.protocols.teapot import transition
from repro.sim.stats import TimeCategory
from repro.tempest.network import Message
from repro.tempest.tags import AccessTag
from repro.util.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.tempest.machine import Machine

#: Directory state used by this protocol: home retains the writable copy
#: while any number of consumers hold continuously-updated read-only copies.
UPDATE_SHARED = "UPDATE_SHARED"


class WriteUpdateProtocol(BaseProtocol):
    """Producer-push coherence with per-phase updates.

    ``coalesce_updates`` controls whether neighboring blocks travel in one
    bulk message.  It defaults to False: coalescing into bulk messages is a
    contribution of *this paper's* predictive protocol (§3.4, §5.4), which
    the earlier hand-written update protocols did not have — each block's
    new value goes out as its own message.
    """

    name = "write-update"
    coalesce_updates = False

    # consumers' copies are read-only registrations while the home keeps
    # the writable copy: UPDATE_SHARED (not SHARED), and a restarted home
    # keeps its READ_WRITE tag
    shared_state = UPDATE_SHARED
    crash_rebuild_home_tag = AccessTag.READ_WRITE

    def __init__(self, machine: "Machine") -> None:
        super().__init__(machine)
        self.updates_pushed = 0
        self.update_messages = 0

    # -- read registration ------------------------------------------------------

    @transition("IDLE", MK.GET_RO)
    @transition(UPDATE_SHARED, MK.GET_RO)
    def register_consumer(self, entry: DirEntry, msg: Message, t: float) -> None:
        """First read from a consumer: deliver data and register it."""
        if msg.src == entry.home:
            raise ProtocolError(
                f"home {msg.src} read-faulted on its own block",
                node=msg.src, block=entry.block, time=t, message_repr=repr(msg),
            )
        entry.grant_read(msg.src, self.shared_state)
        # Home keeps its READ_WRITE tag: updates do not invalidate.
        self.send_data(MK.DATA_RO, entry.home, msg.src, entry.block, t)

    @transition("IDLE", MK.GET_RW)
    @transition(UPDATE_SHARED, MK.GET_RW)
    def reject_remote_write(self, entry: DirEntry, msg: Message, t: float) -> None:
        raise ProtocolError(
            f"write-update protocol requires producer-owned data; node "
            f"{msg.src} wrote block {entry.block} homed at {entry.home}",
            node=msg.src, block=entry.block, time=t, message_repr=repr(msg),
        )

    # -- phase-end update push ------------------------------------------------------

    def adjust_barrier(self, arrivals: dict[int, float]) -> dict[int, float]:
        """Push this phase's writes to registered consumers before the barrier.

        Producers serialize their pushes after their own arrival; consumers
        must additionally absorb installs.  The extra cycles are charged as
        remote-wait (communication) time so accounting still sums to wall
        time.
        """
        cfg = self.config
        pushes = push_set(self.machine.phase_writes, self.directory)
        adjusted = dict(arrivals)
        install_done: dict[int, float] = {}
        for producer, per_consumer in sorted(pushes.items()):
            cursor = adjusted[producer]
            pstats = self.machine.node(producer).stats
            for consumer, blocks in sorted(per_consumer.items()):
                if self.coalesce_updates:
                    runs = coalesce_blocks(blocks)
                else:
                    runs = [(b, 1) for b in sorted(set(blocks))]
                for first, count in runs:
                    payload = count * cfg.block_size
                    send_done = cursor + cfg.handler_cost  # injection
                    if count > 1:
                        arrival = send_done + cfg.bulk_message_cost(payload)
                    else:
                        arrival = send_done + cfg.message_cost(payload)
                    install = (
                        cfg.handler_cost + cfg.presend_entry_cost * count
                    )
                    done = max(install_done.get(consumer, 0.0), arrival) + install
                    install_done[consumer] = done
                    cursor = send_done
                    pstats.messages_sent += 1
                    pstats.bytes_sent += payload
                    self.update_messages += 1
                    self.updates_pushed += count
            # producer-side time spent injecting updates
            pstats.add(TimeCategory.REMOTE_WAIT, cursor - adjusted[producer])
            adjusted[producer] = cursor
        for consumer, done in install_done.items():
            if done > adjusted[consumer]:
                self.machine.node(consumer).stats.add(
                    TimeCategory.REMOTE_WAIT, done - adjusted[consumer]
                )
                adjusted[consumer] = done
        return adjusted


def push_set(writes, directory) -> dict[int, dict[int, list[int]]]:
    """producer -> consumer -> blocks: every registered consumer of a block
    written this phase (``writes``: (node, block) pairs) receives it.  Only
    a block's home may write it."""
    pushes: dict[int, dict[int, list[int]]] = {}
    for node, block in sorted(writes):
        entry = directory.entry(block)
        if entry.home != node:
            raise ProtocolError(
                f"node {node} wrote block {block} homed at {entry.home} "
                f"under write-update",
                node=node, block=block,
            )
        for consumer in entry.sharers:
            pushes.setdefault(node, {}).setdefault(consumer, []).append(block)
    return pushes
