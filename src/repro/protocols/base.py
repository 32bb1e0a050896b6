"""Infrastructure shared by all coherence protocols.

:class:`BaseProtocol` implements the Tempest-side mechanics every protocol
needs — fault vectoring, message delivery with handler occupancy, the
cache-side handlers (invalidate / recall / data-install), and processor
resumption — leaving subclasses to declare home-side directory transitions
in teapot style.

Timing discipline: a message delivered at time *t* first occupies the
destination's handler resource (FIFO), and all of its *effects* (tag changes,
directory updates, outgoing messages) take place at the handler-completion
time, queued on the event engine as a ``(protocol, msg)`` step entry so
effects interleave correctly with other nodes' activity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import EventKind
from repro.protocols.directory import (
    DISCARDED,
    Directory,
    DirEntry,
    DirState,
    PendingRequest,
)
from repro.protocols.messages import MessageKind as MK
from repro.protocols.teapot import ProtocolStateMachine
from repro.tempest.network import Message
from repro.tempest.tags import AccessTag
from repro.util.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.tempest.machine import Machine, ReplayProcessor


class BaseProtocol(ProtocolStateMachine):
    """Common protocol plumbing over a :class:`~repro.tempest.machine.Machine`."""

    name = "base"

    #: the directory state meaning "remote read-only copies exist" (read
    #: grants, crash repair and rebuild, and the model walk use it), and the
    #: home tag a restarted home rebuilds beside such copies.  The
    #: write-update protocol overrides both: its shared state keeps the home
    #: writable.
    shared_state: str = DirState.SHARED
    crash_rebuild_home_tag = AccessTag.READ_ONLY

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.config = machine.config
        self.directory = Directory(machine.home)
        #: node -> (processor, block, access kind) for the one outstanding fault
        self.outstanding: dict[int, tuple["ReplayProcessor", int, str]] = {}
        #: invalidations/recalls that overtook the data message they chase;
        #: serviced right after the data installs (see cache_install)
        self._deferred: dict[tuple[int, int], list[Message]] = {}

    # -- fault vectoring ---------------------------------------------------------

    def fault(self, proc: "ReplayProcessor", block: int, kind: str, t: float) -> None:
        """An access the local tag does not permit, vectored to the protocol."""
        node = proc.node.id
        if node in self.outstanding:
            raise ProtocolError(
                f"node {node} faulted with a fault outstanding",
                node=node, block=block, time=t,
            )
        self.outstanding[node] = (proc, block, kind)
        self.machine.stats.total_remote_requests += 1
        req = MK.GET_RO if kind == "r" else MK.GET_RW
        t_req = t + self.config.fault_cost
        home = self.machine.home(block)
        if home == node:
            # Local fault at the home node: no network, but the request still
            # runs through the home's protocol handler.
            self._deliver_local(node, block, req, t_req)
        else:
            self.send(Message(req, src=node, dst=home, block=block), t_req)

    def _deliver_local(self, node: int, block: int, kind: str, t: float) -> None:
        cost = self.config.handler_cost + self.config.directory_lookup_cost
        done = self.machine.node(node).service_handler(t, cost)
        self._queue_handler(Message(kind, src=node, dst=node, block=block), done)

    # -- message plumbing -----------------------------------------------------------

    def send(self, msg: Message, at: float) -> float:
        return self.machine.send(msg, at)

    def send_data(self, kind: str, src: int, dst: int, block: int,
                  at: float) -> None:
        """Send one block's data: a grant or a writeback."""
        self.send(Message(kind, src=src, dst=dst, block=block,
                          payload_bytes=self.config.block_size), at)

    def handler_cost_for(self, msg: Message) -> float:
        cost = self.config.handler_cost
        if msg.kind in MK.REQUESTS or msg.kind in MK.HOLDER_TO_HOME:
            cost += self.config.directory_lookup_cost
        if msg.bulk:
            # per-block install cost for coalesced transfers
            cost += self.config.presend_entry_cost * len(msg.info.get("blocks", ()))
        return cost

    def on_message(self, msg: Message, t: float) -> None:
        done = self.machine.node(msg.dst).service_handler(t, self.handler_cost_for(msg))
        self._queue_handler(msg, done)

    def _queue_handler(self, msg: Message, done: float) -> None:
        """Queue the ``(protocol, msg)`` handler completion at ``done``,
        stamped with the receiver's incarnation under a crash plan."""
        ctl = self.machine.crash_controller
        if ctl is not None:
            msg.handler_inc = ctl.incarnations[msg.dst]
        self.machine.engine.push_step(done, self, msg)

    def step(self, horizon: float, msg: Message) -> None:
        """The handler for ``msg`` completes: its effects happen now.

        Handler effects are node-local state changes: one queued before a
        crash must not fire while the node is down or after it restarts
        with a fresh incarnation, so a stale stamp makes this dispatch a
        no-op.
        """
        ctl = self.machine.crash_controller
        if ctl is not None and (msg.dst in ctl.down
                                or ctl.incarnations[msg.dst] != msg.handler_inc):
            return
        self._handle(msg, self.machine.engine.now)

    def _handle(self, msg: Message, t: float) -> None:
        """Route a serviced message; ``t`` is the effect time."""
        kind = msg.kind
        if kind in MK.REQUESTS or kind in MK.HOLDER_TO_HOME:
            entry = self.directory.entry(msg.block)
            if entry.home != msg.dst:
                raise ProtocolError(
                    f"{msg} arrived at non-home node {msg.dst}",
                    node=msg.dst, block=msg.block, time=t,
                    message_repr=repr(msg),
                )
            self.dispatch(entry, kind, msg, t)
            self._drain_pending(entry, t)
        elif kind == MK.INV:
            self.cache_invalidate(msg, t)
        elif kind in (MK.RECALL_RO, MK.RECALL_INV):
            self.cache_recall(msg, t)
        elif kind in (MK.DATA_RO, MK.DATA_RW):
            self.cache_install(msg, t)
        else:
            self.handle_extra(msg, t)

    def handle_extra(self, msg: Message, t: float) -> None:
        """Hook for protocol-specific message kinds."""
        raise ProtocolError(
            f"{type(self).__name__} cannot handle {msg}",
            node=msg.dst, block=msg.block, time=t, message_repr=repr(msg),
        )

    # -- cache-side handlers -----------------------------------------------------------

    def _defer(self, msg: Message) -> None:
        self._deferred.setdefault((msg.dst, msg.block), []).append(msg)

    def _chasing_data(self, msg: Message) -> bool:
        out = self.outstanding.get(msg.dst)
        return out is not None and out[1] == msg.block

    def cache_invalidate(self, msg: Message, t: float) -> None:
        tags = self.machine.node(msg.dst).tags
        if tags.get(msg.block) is AccessTag.INVALID and self._chasing_data(msg):
            # The INV overtook the DATA message that makes this node a
            # sharer (control messages are lighter than payload messages).
            # Defer until the data installs.  NOTE the tag check: a node
            # that still holds a readable copy but has an outstanding
            # *upgrade* fault queued at the busy home must ACK immediately,
            # or home-waits-for-ACK / ACK-waits-for-grant deadlocks.
            self._defer(msg)
            return
        tags.invalidate(msg.block)
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(EventKind.INVALIDATE, t, node=msg.dst, block=msg.block)
        self.send(Message(MK.ACK, src=msg.dst, dst=msg.src, block=msg.block), t)

    def cache_recall(self, msg: Message, t: float) -> None:
        tags = self.machine.node(msg.dst).tags
        if tags.get(msg.block) is not AccessTag.READ_WRITE:
            if self._chasing_data(msg):
                self._defer(msg)  # recall overtook the DATA_RW grant
                return
            raise ProtocolError(
                f"recall {msg} at non-owner {msg.dst}",
                node=msg.dst, block=msg.block, time=t, message_repr=repr(msg),
            )
        tags.invalidate(msg.block)
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(EventKind.RECALL, t, node=msg.dst, block=msg.block)
        self.send_data(MK.WB_DATA, msg.dst, msg.src, msg.block, t)

    def cache_install(self, msg: Message, t: float) -> None:
        tags = self.machine.node(msg.dst).tags
        tag = AccessTag.READ_ONLY if msg.kind == MK.DATA_RO else AccessTag.READ_WRITE
        tags.set(msg.block, tag)
        self.complete_fault(msg.dst, msg.block, t)
        # Service invalidations/recalls that arrived ahead of this data:
        # the faulting access has completed; the copy is now surrendered.
        for deferred in self._deferred.pop((msg.dst, msg.block), []):
            self._handle_deferred(deferred, t)

    def _handle_deferred(self, msg: Message, t: float) -> None:
        if msg.kind == MK.INV:
            self.cache_invalidate(msg, t)
        elif msg.kind in (MK.RECALL_RO, MK.RECALL_INV):
            # The freshly-installed copy may be RO (the recall chased a
            # DATA_RO upgrade race); surrender whatever we hold.
            tags = self.machine.node(msg.dst).tags
            tags.invalidate(msg.block)
            self.send_data(MK.WB_DATA, msg.dst, msg.src, msg.block, t)
        else:  # pragma: no cover - defensive
            raise ProtocolError(
                f"cannot defer {msg}",
                node=msg.dst, block=msg.block, time=t, message_repr=repr(msg),
            )

    # -- processor resumption -------------------------------------------------------------

    def complete_fault(self, node: int, block: int, t: float) -> None:
        out = self.outstanding.pop(node, None)
        if out is None:
            raise ProtocolError(
                f"data for node {node} with no outstanding fault",
                node=node, block=block, time=t,
            )
        proc, fault_block, _kind = out
        if fault_block != block:
            raise ProtocolError(
                f"node {node} received block {block} while waiting on {fault_block}",
                node=node, block=block, time=t,
            )
        proc.resume(t)

    # -- grant helpers (used by home-side transitions) ---------------------------------------

    def grant_ro(self, entry: DirEntry, requester: int, t: float) -> None:
        """Give ``requester`` a read-only copy from home memory."""
        if requester == DISCARDED or self.machine.is_down(requester):
            # Crash recovery discarded the request (or the requester died
            # while it was in flight); the entry is already stable.
            return
        home_tags = self.machine.node(entry.home).tags
        if requester == entry.home:
            # Local read grant: home regains (at least) read permission.
            if home_tags.get(entry.block) is AccessTag.INVALID:
                raise ProtocolError(
                    f"home read grant without data: {entry}",
                    node=entry.home, block=entry.block, time=t,
                )
            self.complete_fault(requester, entry.block, t)
        else:
            home_tags.downgrade(entry.block)
            entry.grant_read(requester, self.shared_state)
            self.send_data(MK.DATA_RO, entry.home, requester, entry.block, t)

    def grant_rw(self, entry: DirEntry, requester: int, t: float) -> None:
        """Give ``requester`` the writable copy (all other copies are gone)."""
        home_tags = self.machine.node(entry.home).tags
        # All other copies are already invalidated; with the requester gone
        # too (crash recovery discarded the request, or it died in flight),
        # home memory is the sole — hence current — copy.
        gone = requester == DISCARDED or self.machine.is_down(requester)
        holder = entry.home if gone else requester
        entry.grant_write(holder)
        if holder == entry.home:
            home_tags.set(entry.block, AccessTag.READ_WRITE)
            if not gone:
                self.complete_fault(requester, entry.block, t)
        else:
            home_tags.invalidate(entry.block)
            self.send_data(MK.DATA_RW, entry.home, requester, entry.block, t)

    # -- pending-queue management ------------------------------------------------------------

    def queue_pending(self, entry: DirEntry, msg: Message) -> None:
        entry.pending.append(PendingRequest(kind=msg.kind, requester=msg.src))

    def _drain_pending(self, entry: DirEntry, t: float) -> None:
        """Re-dispatch queued requests once the entry is stable again."""
        while entry.pending and entry.state in DirState.STABLE:
            req = entry.pending.popleft()
            synthetic = Message(req.kind, src=req.requester, dst=entry.home, block=entry.block)
            self.dispatch(entry, req.kind, synthetic, t)

    # -- crash recovery (driven by repro.faults.crash.CrashController) ------------------------

    def on_node_crashed(self, node: int, t: float) -> None:
        """Immediate crash effects: the node's volatile protocol state dies.

        Called at the crash instant, before survivors have detected anything;
        directory repair waits for :meth:`on_node_detected_down`.
        """
        self.outstanding.pop(node, None)
        for key in [k for k in self._deferred if k[0] == node]:
            del self._deferred[key]

    def on_node_detected_down(self, node: int, t: float) -> None:
        """Survivors detected the failure: rebuild what referenced the dead node.

        Entries homed at the dead node are purged (its directory memory died
        with it); every surviving entry is repaired so no request stays stuck
        waiting on a writeback or acknowledgement the dead node can no longer
        send.
        """
        self.directory.purge_home(node)
        for entry in self.directory.known():
            self.repair_entry_for_crash(entry, node, t)
        # Deferred invalidations/recalls *from* the dead node will never be
        # followed by the data they chased; left queued, they would fire as
        # unsolicited ACKs/writebacks against the rebuilt directory.
        for key, msgs in list(self._deferred.items()):
            kept = [m for m in msgs if m.src != node]
            if kept:
                self._deferred[key] = kept
            else:
                del self._deferred[key]

    def repair_entry_for_crash(self, entry: DirEntry, dead: int, t: float) -> None:
        """Remove every reference to ``dead`` from one surviving entry.

        Busy entries complete through their normal transitions by
        synthesizing the message the dead node owed (a writeback or an
        invalidation ACK); the grant guards suppress any grant addressed to
        the dead requester.  Note the simulator tracks permissions, not
        values: a dirty copy lost with its holder is modelled by declaring
        home memory current again.
        """
        if entry.pending:
            kept = [p for p in entry.pending if p.requester != dead]
            if len(kept) != len(entry.pending):
                entry.pending.clear()
                entry.pending.extend(kept)
        if entry.in_service == dead:
            entry.in_service = DISCARDED
        if entry.state == DirState.BUSY_INV and dead in entry.sharers:
            # The dead sharer's ACK will never come; account for it so the
            # waiting writer is granted (or the entry settles, if the writer
            # died too).
            self.dispatch(
                entry, MK.ACK,
                Message(MK.ACK, src=dead, dst=entry.home, block=entry.block), t,
            )
        elif (entry.state in (DirState.BUSY_RECALL_RO, DirState.BUSY_RECALL_RW)
                and entry.owner == dead):
            # The recalled writeback died with its owner: home reclaims the
            # block through the normal writeback transition.
            self.dispatch(
                entry, MK.WB_DATA,
                Message(MK.WB_DATA, src=dead, dst=entry.home, block=entry.block,
                        payload_bytes=self.config.block_size), t,
            )
        elif entry.state not in DirState.BUSY:
            home_tags = self.machine.node(entry.home).tags
            if entry.owner == dead:
                entry.reclaim()
                home_tags.set(entry.block, AccessTag.READ_WRITE)
            if dead in entry.sharers:
                entry.sharers.discard(dead)
                if entry.state == self.shared_state and not entry.sharers:
                    entry.reclaim()
                    home_tags.set(entry.block, AccessTag.READ_WRITE)
        self._drain_pending(entry, t)

    def rebuild_home_state(self, node: int, t: float) -> int:
        """A restarted home re-derives its directory from survivors' tags.

        For every block homed at ``node``: a surviving writable copy is
        granted back to its holder; surviving read-only copies are granted
        back in the protocol's ``shared_state``; with no surviving copy,
        home memory is the sole copy and the home tag returns to
        READ_WRITE.  Returns how many entries were rebuilt.
        """
        machine = self.machine
        home_tags = machine.node(node).tags
        rw_holder: dict[int, int] = {}
        ro_holders: dict[int, set[int]] = {}
        for other in machine.nodes:
            if other.id == node or machine.is_down(other.id):
                continue
            for block in other.tags.blocks_with_tag(AccessTag.READ_WRITE):
                if machine.home(block) == node:
                    rw_holder[block] = other.id
            for block in other.tags.blocks_with_tag(AccessTag.READ_ONLY):
                if machine.home(block) == node:
                    ro_holders.setdefault(block, set()).add(other.id)
        rebuilt = 0
        for region in machine.addr_space.regions:
            for block in machine.addr_space.blocks_of_range(region.base, region.size):
                if machine.home(block) != node:
                    continue
                owner = rw_holder.get(block)
                readers = ro_holders.get(block)
                if owner is None and not readers:
                    home_tags.set(block, AccessTag.READ_WRITE)
                    continue
                entry = self.directory.entry(block)
                entry.in_service = None
                entry.acks_needed = 0
                entry.pending.clear()
                if owner is not None:
                    entry.grant_write(owner)
                else:
                    entry.grant_write(node)  # home memory, then each reader
                    for reader in readers:
                        entry.grant_read(reader, self.shared_state)
                    home_tags.set(block, self.crash_rebuild_home_tag)
                rebuilt += 1
        return rebuilt

    def reissue_faults_for_home(self, node: int, t: float) -> int:
        """Re-send outstanding requests the crash of home ``node`` orphaned.

        A request in flight to (or queued at) the dead home was lost with
        it; once the home restarts, each survivor still faulted on one of
        its blocks sends a fresh request.  With the reliable transport
        installed, a channel that still has unacked sends is skipped — its
        own retransmission will reach the restarted home.
        """
        transport = self.machine._transport
        reissued = 0
        for requester in sorted(self.outstanding):
            proc, block, kind = self.outstanding[requester]
            if self.machine.home(block) != node:
                continue
            if transport is not None and transport.has_unacked(requester, node):
                continue
            req = MK.GET_RO if kind == "r" else MK.GET_RW
            self.send(Message(req, src=requester, dst=node, block=block), t)
            self.machine.node(requester).stats.reissued_requests += 1
            reissued += 1
            obs = self.machine.obs
            if obs.enabled:
                obs.emit(EventKind.REISSUE, t, node=requester, block=block,
                         home=node)
        return reissued

    # -- phase-group hooks (overridden by the predictive protocol) ------------------------------

    def begin_group(self, directive_id: int, t: float) -> list[float] | None:
        return None

    def end_group(self, directive_id: int, t: float) -> None:
        return None

    def adjust_barrier(self, arrivals: dict[int, float]) -> dict[int, float]:
        return arrivals
