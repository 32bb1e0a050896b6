"""The predictive protocol's timing-free decisions (paper §3.3-3.4).

The simulator's :class:`~repro.core.predictive.PredictiveProtocol` and the
analytical model's walk (:mod:`repro.model.predictor`) both run the protocol
through this module: :class:`ScheduleLifecycle` learns, judges and degrades
schedules; :func:`plan_presend` makes one home's pre-send decisions.  The
simulator prices the resulting token program in cycles and sends its
messages; the walk keeps it for pricing under a grid of cost tables.

Knobs are read at use from a ``knobs`` object: the simulator passes the
protocol (so a patched class or instance attribute takes effect), the model
:data:`DEFAULTS`, the one definition of the configuration it prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.schedule import (CommSchedule, EntryKind, ScheduleEntry,
                                 ScheduleStore)
from repro.protocols.directory import DirState
from repro.tempest.tags import AccessTag
from repro.util.blocks import coalesce_blocks
from repro.util.errors import ProtocolError

#: pre-send token codes; a token is a tuple led by its code:
#: ``(ENTRY, block, home_writes)`` one schedule entry walked (the home took
#: the writable copy in place); ``(RECALL, block, owner, wasted)`` a
#: synchronous recall of ``owner``'s writable copy; ``(INV, dst, block)`` an
#: unacknowledged invalidation; ``(SEND, dst, grant, first, count, wastes)``
#: one (bulk if ``count`` > 1) transfer of a block run.  ``wasted`` is the
#: schedule whose earlier copy a recall confirmed wasted (or None);
#: ``wastes`` the ``(block, schedule)`` pairs a transfer confirmed.
ENTRY, RECALL, INV, SEND = range(4)


@dataclass(frozen=True)
class Knobs:
    """The predictive protocol's knobs (see ``PredictiveProtocol``)."""

    coalesce_presend: bool = True
    rebuild_every_group: bool = False
    anticipate_conflicts: bool = False
    max_schedules: int = 64
    degrade_patience: int = 3
    degrade_cooldown: int = 2


DEFAULTS = Knobs()


class ScheduleLifecycle:
    """A protocol's schedules, from learning to judgment.

    Owns the LRU ``store``, the deferred-judgment map ``pending`` ((dst,
    block) -> the schedule that transferred the copy, until the copy is
    accessed or pre-sent again unconsumed), the group's ``presented`` pairs
    and the ``suppress_learning`` flag (a frozen schedule learns nothing).
    """

    def __init__(self, knobs) -> None:
        self.knobs = knobs
        self.store = ScheduleStore(knobs.max_schedules)
        self.pending: dict[tuple[int, int], CommSchedule] = {}
        self.presented: set[tuple[int, int]] = set()
        self.suppress_learning = False
        #: optional observer called with (node, block, schedule) for each
        #: consumed copy (the simulator routes it to the tracing bus)
        self.on_consume: Callable | None = None

    def warm_seed(self, records) -> Iterator[CommSchedule]:
        """Install corpus records as starting schedules, yielding each one
        that took.  They enter through :meth:`ScheduleStore.insert`.
        Records that fail to decode are skipped (corpus damage must never
        surface as a simulation exception), and sites that already hold a
        schedule are left alone (live learning outranks the corpus)."""
        for record in records or ():
            try:
                sched = CommSchedule.from_record(record)
            except Exception:
                continue
            if not sched.entries or sched.directive_id in self.store:
                continue
            self.store.insert(sched)
            yield sched

    def begin(self, directive_id: int) -> tuple[CommSchedule, bool]:
        """Open a new instance of a phase group; returns its schedule and
        whether it was just degraded (flushed into a cooldown)."""
        knobs = self.knobs
        sched = self.store.fetch(directive_id)
        if knobs.rebuild_every_group:
            sched.flush()
        sched.begin_instance()
        self.presented.clear()
        self.suppress_learning = False
        degraded = sched.wasted_streak >= knobs.degrade_patience
        if degraded:
            sched.degrade(knobs.degrade_cooldown)
            self.pending = {pair: owner for pair, owner in self.pending.items()
                            if owner is not sched}
        return sched, degraded

    def presend_due(self, sched: CommSchedule) -> bool:
        """Whether this instance pre-sends: not while cooling down (the
        group runs as plain Stache and learns nothing), nor before anything
        was learned."""
        if sched.cooldown > 0:
            sched.cooldown -= 1
            self.suppress_learning = True
            return False
        return bool(sched.entries)

    def record(self, directive_id: int | None, block: int, node: int,
               kind: str) -> None:
        """A faulting request routed through the home (``kind`` "r"/"w")."""
        if directive_id is not None and not self.suppress_learning:
            self.store.fetch(directive_id).record(block, node, kind)

    def register(self, dst: int, block: int,
                 sched: CommSchedule) -> CommSchedule | None:
        """Enter a transferred copy into deferred judgment.

        Re-transferring a pair that is still pending means the earlier copy
        was invalidated without ever being accessed — the one observation
        that *confirms* a pre-send was wasted; its schedule is returned.  An
        unconsumed copy that is never invalidated costs nothing further and
        is left unjudged.
        """
        prev = self.pending.get((dst, block))
        if prev is not None:
            prev.note_waste()
        self.pending[(dst, block)] = sched
        return prev

    def consume(self, node: int, block: int, kind: str = "r") -> None:
        """``node`` accessed ``block`` (either ``kind``): that consumes a
        pending copy.  The simulator calls this on every access, as one of
        ``machine.access_hooks``."""
        sched = self.pending.pop((node, block), None)
        if sched is not None:
            sched.note_useful()
            if self.on_consume is not None:
                self.on_consume(node, block, sched)

    def end(self, directive_id: int, accessed) -> tuple[int, list[int]]:
        """Close a phase group: ``accessed`` holds the (node, block) pairs
        touched in it.  Returns how many copies were pre-sent and the
        receiver of each one never touched."""
        presented = len(self.presented)
        useless = [dst for dst, _ in self.presented - accessed]
        self.presented.clear()
        self.suppress_learning = False
        sched = self.store.get(directive_id)
        if sched is not None:
            sched.note_presend_outcome(presented, len(useless))
            sched.fold_instance_judgment()
        return presented, useless

    def forget_node(self, node: int) -> None:
        """Copies pre-sent to a crashed node died with its caches: they
        leave deferred judgment and this group's usefulness sample."""
        self.pending = {pair: owner for pair, owner in self.pending.items()
                        if pair[0] != node}
        self.presented = {p for p in self.presented if p[0] != node}


def plan_presend(sched: CommSchedule, entries: list[ScheduleEntry],
                 home: int, life: ScheduleLifecycle, directory,
                 permits: Callable) -> list[tuple]:
    """``home``'s pre-send program for its slice ``entries`` of ``sched``.

    Runs the directory step (:meth:`~repro.protocols.directory.DirEntry.
    demand`, ``reclaim``, the grants) on ``directory`` and enters every
    transferred copy into ``life``'s deferred judgment.  ``permits(dentry,
    node, kind)`` says whether ``node`` already holds a copy allowing
    ``kind`` ("r"/"w"): the simulator asks its tags, the model the
    directory entry itself.
    """
    knobs = life.knobs
    program: list[tuple] = []
    # (dst, grant) -> blocks to transfer in bulk
    outgoing: dict[tuple[int, AccessTag], list[int]] = {}
    for entry in entries:
        block, kind = entry.block, entry.kind
        at = len(program)
        program.append((ENTRY, block, False))
        if kind is EntryKind.CONFLICT:
            if not knobs.anticipate_conflicts:
                continue  # no anticipated action (§3.4)
            # extension: act as if the block were in its last stable state
            # before the conflict appeared
            kind = entry.pre_conflict_kind
            if kind is None or (kind is EntryKind.WRITE
                                and entry.writer is None):
                continue
        dentry = directory.entry(block)
        if dentry.state in DirState.BUSY:
            raise ProtocolError(f"pre-send with busy directory entry {dentry}")
        writer = entry.writer
        reading = kind is EntryKind.READ
        recalled, others = dentry.demand(writer, "r" if reading else "w")
        if recalled is not None:
            if not reading and recalled == writer:
                continue  # predicted writer already owns the block
            dentry.reclaim()
            # A READ entry's recall is itself an anticipatory transfer —
            # home regains a readable copy — so it enters deferred judgment:
            # a schedule whose only effect is bringing the block home before
            # the home reads it is helping, not wasting.
            wasted = life.register(home, block, sched) if reading else None
            program.append((RECALL, block, recalled, wasted))
        if reading:
            for reader in sorted(entry.readers):
                if reader == home:
                    continue  # home reads its own memory
                # a recalled owner holds no copy, though its tags change
                # only when the simulator runs the program
                if reader != recalled and permits(dentry, reader, "r"):
                    continue  # already holds a usable copy
                outgoing.setdefault((reader, AccessTag.READ_ONLY),
                                    []).append(block)
                dentry.grant_read(reader, DirState.SHARED)
            continue
        for sharer in others:
            program.append((INV, sharer, block))
            dentry.sharers.discard(sharer)
        if writer == home:
            # writer held an RO copy; with others gone it upgrades in place
            dentry.grant_write(home)
            program[at] = (ENTRY, block, True)
        elif not permits(dentry, writer, "w"):
            outgoing.setdefault((writer, AccessTag.READ_WRITE),
                                []).append(block)
            dentry.grant_write(writer)
    for (dst, grant), blocks in sorted(outgoing.items()):
        runs = (coalesce_blocks(blocks) if knobs.coalesce_presend
                else [(b, 1) for b in sorted(set(blocks))])
        for first, count in runs:
            wastes = []
            for b in range(first, first + count):
                life.presented.add((dst, b))
                prev = life.register(dst, b, sched)
                if prev is not None:
                    wastes.append((b, prev))
            program.append((SEND, dst, grant, first, count, wastes))
    return program
