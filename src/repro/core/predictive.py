"""The predictive cache-coherence protocol (paper §3.3-3.4).

``PredictiveProtocol`` extends Stache in two ways, exactly as the paper
describes:

1. **Schedule building.**  Home-node request handlers are augmented: while
   execution is inside a compiler-directed phase group, every faulting
   GET_RO / GET_RW routed through the home is recorded into that directive's
   :class:`~repro.core.schedule.CommSchedule`.  Schedules grow incrementally;
   read+write of one block within the same phase instance marks it a
   *conflict* block.

2. **Pre-send.**  At the start of a subsequent execution of the phase group,
   every node walks the schedule slice it is home for and executes
   anticipated actions early (§3.4):

   * ``READ`` entries — invalidate/recall any current writer, then forward
     read-only copies to all recorded readers;
   * ``WRITE`` entries — invalidate current readers or writer, then forward
     a writable copy to the recorded writer;
   * ``CONFLICT`` entries — no action.

   Neighboring blocks bound for the same destination are coalesced into bulk
   messages to amortize message startup cost.  A global barrier ends the
   pre-send phase so every block is in a state the default protocol expects.

Modelling note: pre-send precedes all computation of the phase and ends with
a barrier, so invalidations issued during pre-send need no acknowledgements
(the barrier subsumes them), and the rare recall of a remote writer's copy is
accounted synchronously in the home's walk (a full request/response round
trip of cost) rather than through transient directory states.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.presend import (
    DEFAULTS,
    ENTRY,
    INV,
    RECALL,
    ScheduleLifecycle,
    plan_presend,
)
from repro.core.schedule import CommSchedule, EntryKind
from repro.obs.events import EventKind as Ev
from repro.protocols.messages import MessageKind as MK
from repro.protocols.stache import StacheProtocol
from repro.tempest.network import Message
from repro.tempest.tags import AccessTag

if TYPE_CHECKING:  # pragma: no cover
    from repro.tempest.machine import Machine


class PredictiveProtocol(StacheProtocol):
    """Stache + communication-schedule prediction.

    Two class-level knobs support the ablation benchmarks:

    * ``coalesce_presend`` — transfer runs of neighboring blocks as bulk
      messages (§3.4).  Off: one message per block.
    * ``rebuild_every_group`` — discard the schedule at every pre-send
      (the inspector-executor-style "rebuild whenever anything changed"
      policy the paper's incremental schedules avoid).
    * ``anticipate_conflicts`` — implement §3.4's suggested extension:
      for a conflict block, "anticipate the first stable block state (read
      or write) before the conflict occurred" instead of doing nothing.

    Robustness knobs (graceful degradation — correctness never depends on a
    prediction, so every fallback is merely plain Stache for a while):

    * ``max_schedules`` — bound on live schedules; least-recently-used
      directive sites are evicted and relearned on return.
    * ``degrade_patience`` / ``degrade_cooldown`` — pre-sent copies are
      judged *deferred*: a copy only counts as wasted once the schedule
      pre-sends it again and it was never accessed in the interim (so it
      was invalidated unconsumed), and any access to a pre-sent copy — in
      whatever later phase — resets the schedule's waste streak.  After
      ``degrade_patience`` consecutive confirmed wastes the schedule is
      flushed and the directive falls back to plain Stache for
      ``degrade_cooldown`` instances before learning afresh.  Deferred
      judgment is what keeps degradation off genuine workloads: a directive
      whose pre-sends are consumed by a *different* aliased phase, or whose
      recall merely brings the block home before the home reads it, is
      helping even though its own instance never touches the copies.  Only
      schedules that are chronically wrong — corrupted, stale, or predicting
      for a consumer that never comes back while a writer keeps invalidating
      the copy — accumulate confirmed wastes.
    """

    name = "predictive"
    coalesce_presend = DEFAULTS.coalesce_presend
    rebuild_every_group = DEFAULTS.rebuild_every_group
    anticipate_conflicts = DEFAULTS.anticipate_conflicts
    max_schedules = DEFAULTS.max_schedules
    degrade_patience = DEFAULTS.degrade_patience
    degrade_cooldown = DEFAULTS.degrade_cooldown

    def __init__(self, machine: "Machine") -> None:
        super().__init__(machine)
        #: schedules and their deferred judgment; the knobs are read from
        #: this protocol at each use
        self.life = ScheduleLifecycle(self)
        self.presend_messages = 0
        self.presend_blocks = 0
        self.schedules = self.life.store
        self.schedules.on_evict = self._note_evict
        self.life.on_consume = self._note_consumed
        machine.access_hooks.append(self.life.consume)

    def _note_evict(self, directive_id: int) -> None:
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(Ev.SCHED_EVICT, self.machine.engine.now,
                     evicted_directive=directive_id)

    def _note_consumed(self, node: int, block: int,
                       sched: CommSchedule) -> None:
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(Ev.PRESEND_CONSUMED, self.machine.engine.now,
                     node=node, block=block, src_directive=sched.directive_id)

    # -- schedule access -----------------------------------------------------------

    def flush_schedule(self, directive_id: int) -> None:
        """FLUSH_SCHEDULE directive: rebuild from empty (§3.3)."""
        if directive_id in self.schedules:
            self.schedules[directive_id].flush()
            obs = self.machine.obs
            if obs.enabled:
                obs.emit(Ev.SCHED_FLUSH, self.machine.engine.now,
                         flushed_directive=directive_id)

    def warm_seed(self, records) -> int:
        """Install corpus records as starting schedules; returns how many
        took (see :meth:`ScheduleLifecycle.warm_seed`).

        The first ``begin_group`` at a seeded directive pre-sends
        immediately (iteration 1) instead of spending it learning.  A warmed
        schedule is an *optimization input*, never a trust boundary: a wrong
        one merely mispredicts, which deferred judgment already absorbs.
        """
        installed = 0
        obs = self.machine.obs
        for sched in self.life.warm_seed(records):
            installed += 1
            if obs.enabled:
                obs.emit(Ev.SCHED_WARM, self.machine.engine.now,
                         warmed_directive=sched.directive_id,
                         entries=len(sched.entries))
        return installed

    # -- part 1: building schedules (augmented home handlers) -----------------------

    def _handle(self, msg: Message, t: float) -> None:
        if msg.kind in MK.REQUESTS:
            self.life.record(self.machine.current_directive, msg.block,
                             msg.src, "r" if msg.kind == MK.GET_RO else "w")
        super()._handle(msg, t)

    # -- part 2: pre-send ------------------------------------------------------------

    def begin_group(self, directive_id: int, t: float) -> list[float]:
        """Walk schedules at every home node; pre-send data; return per-node
        send-side completion times (the machine adds the closing barrier)."""
        life = self.life
        sched, degraded = life.begin(directive_id)
        obs = self.machine.obs
        if degraded:
            self.machine.stats.schedules_degraded += 1
            if obs.enabled:
                obs.emit(Ev.SCHED_DEGRADE, t,
                         cooldown=self.degrade_cooldown)
        injector = self.machine.fault_injector
        if injector is not None:
            action = injector.schedule_fault(directive_id)
            if action == "stale":
                # The schedule stops tracking reality this instance: pre-send
                # from it as-is, but record none of this instance's faults.
                life.suppress_learning = True
                if obs.enabled:
                    obs.emit(Ev.SCHED_STALE, t)
            elif action == "corrupt":
                self._corrupt_schedule(sched)
                if obs.enabled:
                    obs.emit(Ev.SCHED_CORRUPT, t, entries=len(sched.entries))
        if not life.presend_due(sched):
            # Degraded (this phase group runs as plain Stache while the
            # misprediction source hopefully passes), or nothing learned yet:
            # no pre-send phase, so no pre-send barrier either.
            return None
        slices = sched.entries_by_home(self.machine.home, self.config.n_nodes)
        return [
            self._run_presend(home, plan_presend(
                sched, entries, home, life, self.directory,
                self._tags_permit), t)
            for home, entries in enumerate(slices)
        ]

    def end_group(self, directive_id: int, t: float) -> None:
        """Account pre-sent blocks the receiver never touched (redundant
        transfers from untracked deletions or over-wide blocks), and fold
        the outcome into the schedule's degradation tracking."""
        presented, useless = self.life.end(directive_id,
                                           self.machine.group_accessed)
        for dst in useless:
            self.machine.node(dst).stats.presend_useless_blocks += 1
        obs = self.machine.obs
        if obs.enabled and presented:
            obs.emit(Ev.PRESEND_OUTCOME, t, presented=presented,
                     useless=len(useless))

    def _corrupt_schedule(self, sched: CommSchedule) -> None:
        """Injected corruption: flip every entry's anticipated direction.

        Deterministic, and only ever *mis-predicts* — the pre-send walk keeps
        the directory consistent whatever the entries claim, so a corrupted
        schedule costs useless transfers and re-faults, never coherence.
        """
        for entry in sched.entries.values():
            if entry.kind is EntryKind.READ and entry.readers:
                entry.kind = EntryKind.WRITE
                entry.writer = min(entry.readers)
            elif entry.kind is EntryKind.WRITE and entry.writer is not None:
                entry.kind = EntryKind.READ
                entry.readers.add(entry.writer)

    # -- crash recovery --------------------------------------------------------------

    def on_node_crashed(self, node: int, t: float) -> None:
        super().on_node_crashed(node, t)
        self.life.forget_node(node)

    def on_node_detected_down(self, node: int, t: float) -> None:
        super().on_node_detected_down(node, t)
        # Schedules predicting for (or homed at) the dead node would pre-send
        # into its cold caches; purge those references and let the existing
        # incremental-learning path relearn the survivors' pattern.
        for sched in self.schedules.values():
            sched.purge_node(node, self.machine.home)

    # -- executing a pre-send program ----------------------------------------------------

    def _tags_permit(self, dentry, node: int, kind: str) -> bool:
        """The planner's permission oracle: the holder's own tags, which
        under a crash plan may lag the directory."""
        return self.machine.node(node).tags.permits(dentry.block, kind)

    def _run_presend(self, home: int, program: list[tuple],
                     cursor: float) -> float:
        """Price ``home``'s pre-send program from ``cursor`` and carry it
        out (a recall synchronously: see the modelling note above); returns
        the home's send-side completion time."""
        cfg = self.config
        machine = self.machine
        obs = machine.obs
        home_node = machine.node(home)
        home_tags = home_node.tags
        for token in program:
            code = token[0]
            if code == ENTRY:
                cursor += cfg.presend_entry_cost
                if token[2]:
                    home_tags.set(token[1], AccessTag.READ_WRITE)
            elif code == RECALL:
                _, block, owner, wasted = token
                cursor += 2 * cfg.message_cost(cfg.block_size) + 2 * cfg.handler_cost
                owner_node = machine.node(owner)
                owner_node.tags.invalidate(block)
                home_tags.set(block, AccessTag.READ_WRITE)
                home_node.stats.messages_sent += 1
                owner_node.stats.messages_sent += 1
                owner_node.stats.bytes_sent += cfg.block_size
                if wasted is not None and obs.enabled:
                    obs.emit(Ev.PRESEND_WASTE, cursor, node=home, block=block,
                             src_directive=wasted.directive_id)
            elif code == INV:
                self.send(Message(MK.PRESEND_INV, src=home, dst=token[1],
                                  block=token[2]), cursor)
                cursor += cfg.presend_entry_cost
            else:
                _, dst, grant, first, count, wastes = token
                run = list(range(first, first + count))
                read_only = grant is AccessTag.READ_ONLY
                msg = Message(
                    MK.PRESEND_RO if read_only else MK.PRESEND_RW,
                    src=home, dst=dst, block=first,
                    payload_bytes=count * cfg.block_size,
                    info={"blocks": run}, bulk=count > 1,
                )
                self.send(msg, cursor)
                if obs.enabled:
                    obs.emit(Ev.PRESEND_MSG, cursor, node=home, dst=dst,
                             block=first, blocks=count, bulk=msg.bulk,
                             grant="ro" if read_only else "rw")
                cursor += cfg.handler_cost  # injection occupancy
                self.presend_messages += 1
                self.presend_blocks += count
                home_node.stats.presend_blocks_sent += count
                if obs.enabled:
                    for block, prev in wastes:
                        obs.emit(Ev.PRESEND_WASTE, cursor, node=dst,
                                 block=block, src_directive=prev.directive_id)
                # home keeps a read-only copy next to readers, none once a
                # remote writer holds the block
                for block in run:
                    (home_tags.downgrade if read_only
                     else home_tags.invalidate)(block)
        return cursor

    # -- receiving pre-sent data ----------------------------------------------------------

    def handle_extra(self, msg: Message, t: float) -> None:
        if msg.kind == MK.PRESEND_INV:
            # No acknowledgement: the pre-send barrier subsumes it.
            self.machine.node(msg.dst).tags.invalidate(msg.block)
            return
        if msg.kind in (MK.PRESEND_RO, MK.PRESEND_RW):
            tags = self.machine.node(msg.dst).tags
            tag = AccessTag.READ_ONLY if msg.kind == MK.PRESEND_RO else AccessTag.READ_WRITE
            for block in msg.info["blocks"]:
                tags.set(block, tag)
            self.machine.node(msg.dst).stats.presend_blocks_received += len(
                msg.info["blocks"]
            )
            return
        super().handle_extra(msg, t)
