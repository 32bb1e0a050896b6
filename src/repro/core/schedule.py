"""Incremental communication schedules (paper §3.3).

A schedule belongs to one compiler-placed directive site and maps cache
blocks to what the protocol learned about their communication in earlier
executions of that phase:

* which remote nodes requested a **read**able copy (the consumer set),
* which node requested the **writ**able copy (the producer),
* whether the block was both read and written *within the same phase
  instance* — a **conflict** block (false sharing or genuinely conflicting
  tasks), for which the pre-send phase takes no action.

Schedules grow incrementally: faults not anticipated by the pre-send phase
are appended, which is what lets the protocol track adaptive applications.
Deletions are *not* tracked — a node that stops accessing a block keeps
receiving it (paper §3.3: "the protocol transfers the block unnecessarily"),
until the schedule is explicitly flushed.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.util.blocks import coalesce_blocks

__all__ = ["EntryKind", "ScheduleEntry", "CommSchedule", "ScheduleStore",
           "coalesce_blocks"]


class EntryKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    CONFLICT = "conflict"


@dataclass
class ScheduleEntry:
    """What the home node learned about one block's per-phase communication."""

    block: int
    kind: EntryKind
    readers: set[int] = field(default_factory=set)
    writer: int | None = None
    #: phase-group instance in which this entry was last updated
    instance: int = 0
    #: the last stable kind before the entry became a conflict (§3.4 suggests
    #: anticipating "the first stable block state before the conflict
    #: occurred" as a possible conflict action)
    pre_conflict_kind: EntryKind | None = None

    def __repr__(self) -> str:
        who = (
            f"readers={sorted(self.readers)}"
            if self.kind is EntryKind.READ
            else f"writer={self.writer}"
            if self.kind is EntryKind.WRITE
            else f"readers={sorted(self.readers)} writer={self.writer}"
        )
        return f"<Sched blk={self.block} {self.kind.value} {who}>"


class CommSchedule:
    """The communication schedule of one directive site."""

    def __init__(self, directive_id: int):
        self.directive_id = directive_id
        self.entries: dict[int, ScheduleEntry] = {}
        #: current phase-group instance (incremented at each pre-send)
        self.instance: int = 0
        # growth bookkeeping (for tests and the adaptive experiments)
        self.additions_per_instance: list[int] = []
        self._added_this_instance: int = 0
        # degradation bookkeeping: EWMA of the per-instance useless-presend
        # fraction (reporting), plus a streak of pre-sent copies confirmed
        # wasted under deferred judgment (a copy is *wasted* only once it is
        # re-pre-sent having never been accessed; *useful* the moment any
        # access consumes it, in whichever later phase that happens)
        self.mispredict_rate: float = 0.0
        self.mispredict_samples: int = 0
        self.wasted_streak: int = 0
        self._wasted_this_instance: bool = False
        #: instances left in which the protocol skips pre-send (plain Stache)
        self.cooldown: int = 0

    # -- building ------------------------------------------------------------

    def begin_instance(self) -> int:
        """A new execution of this phase group starts."""
        self.instance += 1
        self.additions_per_instance.append(self._added_this_instance)
        self._added_this_instance = 0
        return self.instance

    def record(self, block: int, requester: int, kind: str) -> ScheduleEntry:
        """Record a faulting request routed through the home node.

        ``kind`` is ``"r"`` or ``"w"``.  Called from the (augmented) home
        handlers during a directive-covered phase group.
        """
        entry = self.entries.get(block)
        if entry is None:
            ek = EntryKind.READ if kind == "r" else EntryKind.WRITE
            entry = ScheduleEntry(block=block, kind=ek, instance=self.instance)
            self.entries[block] = entry
            self._added_this_instance += 1
        if entry.kind is not EntryKind.CONFLICT:
            opposite = EntryKind.WRITE if kind == "r" else EntryKind.READ
            if entry.kind is opposite and entry.instance == self.instance:
                # Read and written within the same phase.  By *different*
                # processors that is a conflict (false sharing or clashing
                # tasks, §3.3); by the same processor it is the classic
                # migratory read-modify-write, which the pre-send phase
                # should anticipate as a WRITE grant.
                same_node = (
                    (kind == "w" and entry.readers <= {requester})
                    or (kind == "r" and entry.writer == requester
                        and not entry.readers)
                )
                if same_node:
                    entry.kind = EntryKind.WRITE
                else:
                    entry.pre_conflict_kind = entry.kind
                    entry.kind = EntryKind.CONFLICT
            elif entry.kind is opposite:
                # Pattern changed between iterations (e.g. migratory data):
                # adopt the new kind — asymmetrically.  A read over a WRITE
                # entry always flips it to READ; a write over a READ entry
                # flips it only when no *other* node is a recorded reader.
                # Anticipating the write would invalidate those readers'
                # copies and they would fault right back, so keeping the
                # READ anticipation is never worse — and it stops an entry
                # from flip-flopping READ<->WRITE forever when distinct
                # phases under one directive alternate a producer and a
                # consumer.
                if kind == "r" or entry.readers <= {requester}:
                    entry.kind = EntryKind.READ if kind == "r" else EntryKind.WRITE
        if kind == "r":
            entry.readers.add(requester)
        else:
            entry.writer = requester
        entry.instance = self.instance
        return entry

    def flush(self) -> None:
        """Discard the schedule (for deletion-heavy pattern changes, §3.3)."""
        self.entries.clear()
        self.additions_per_instance.append(self._added_this_instance)
        self._added_this_instance = 0

    # -- degradation ----------------------------------------------------------

    #: EWMA smoothing for the misprediction rate
    EWMA_ALPHA = 0.5

    def note_presend_outcome(self, presented: int, useless: int) -> None:
        """Fold one instance's pre-send usefulness into the reporting EWMA.

        An instance that pre-sent nothing carries no information and is
        skipped.  This rate is instance-scoped — a copy unused within its own
        group still counts against it — so it is kept for reporting only;
        the degradation decision rests on the deferred-judgment streak
        (:meth:`note_waste` / :meth:`note_useful`), which credits a copy
        consumed in *any* later phase before it is invalidated.
        """
        if presented <= 0:
            return
        rate = useless / presented
        if self.mispredict_samples == 0:
            self.mispredict_rate = rate
        else:
            a = self.EWMA_ALPHA
            self.mispredict_rate = a * rate + (1.0 - a) * self.mispredict_rate
        self.mispredict_samples += 1

    def note_waste(self) -> None:
        """A pre-sent copy was confirmed wasted: it is being pre-sent again
        (so it was invalidated) without ever having been accessed.

        Wastes are folded into the streak once per instance
        (:meth:`fold_instance_judgment`), so a single churny instance that
        re-presents several copies cannot burn through the whole patience
        budget by itself.
        """
        self._wasted_this_instance = True

    def note_useful(self) -> None:
        """A pre-sent copy was consumed — the schedule is earning its keep;
        any confirmed-waste streak (and this instance's waste mark) ends
        here."""
        self.wasted_streak = 0
        self._wasted_this_instance = False

    def fold_instance_judgment(self) -> None:
        """Close one instance's deferred judgment: an instance that confirmed
        at least one waste and earned no usefulness extends the streak."""
        if self._wasted_this_instance:
            self.wasted_streak += 1
            self._wasted_this_instance = False

    def degrade(self, cooldown: int) -> None:
        """Give up on this schedule: flush it and fall back to plain Stache
        for ``cooldown`` instances before learning afresh."""
        self.flush()
        self.mispredict_rate = 0.0
        self.mispredict_samples = 0
        self.wasted_streak = 0
        self._wasted_this_instance = False
        self.cooldown = cooldown

    def purge_node(self, node: int, home_of: Callable[[int], int]) -> int:
        """Crash recovery: drop every reference to a dead node.

        Entries for blocks the dead node is home for are deleted outright
        (the restarted home relearns them from scratch); elsewhere the node
        is removed from reader sets and writer slots, deleting entries left
        empty.  Returns how many entries were deleted.
        """
        removed = 0
        for block in list(self.entries):
            e = self.entries[block]
            if home_of(block) == node:
                del self.entries[block]
                removed += 1
                continue
            e.readers.discard(node)
            if e.writer == node:
                e.writer = None
            if ((e.kind is EntryKind.READ and not e.readers)
                    or (e.kind is EntryKind.WRITE and e.writer is None)
                    or (e.kind is EntryKind.CONFLICT and e.writer is None
                        and not e.readers)):
                del self.entries[block]
                removed += 1
        return removed

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ScheduleEntry]:
        return iter(self.entries.values())

    def entries_by_home(self, home_of: Callable[[int], int],
                        n: int) -> list[list[ScheduleEntry]]:
        """Each of ``n`` nodes' slice of the schedule, in block order, from
        one pass with one ``home_of`` lookup per entry (§3.4: a home
        pre-sends only the blocks it is home for)."""
        slices: list[list[ScheduleEntry]] = [[] for _ in range(n)]
        for block, entry in sorted(self.entries.items()):
            slices[home_of(block)].append(entry)
        return slices

    def conflict_blocks(self) -> list[int]:
        return sorted(b for b, e in self.entries.items() if e.kind is EntryKind.CONFLICT)

    # -- persistence (repro.corpus) -------------------------------------------

    def to_record(self) -> dict:
        """The canonical JSON-safe form of what this schedule *learned*.

        Run-local bookkeeping (instance counters, growth history, the
        misprediction EWMA and judgment marks) deliberately does not
        persist — a warm-started run judges the inherited entries afresh,
        exactly like a run whose schedule was handed over in memory.  The
        degradation ``cooldown`` does persist: a schedule that proved
        chronically wrong should not resume pre-sending the moment a new
        process picks it up.
        """
        return {
            "directive": self.directive_id,
            "entries": [
                {
                    "block": e.block,
                    "kind": e.kind.value,
                    "readers": sorted(e.readers),
                    "writer": e.writer,
                    "pre_conflict": (e.pre_conflict_kind.value
                                     if e.pre_conflict_kind else None),
                }
                for _, e in sorted(self.entries.items())
            ],
            "cooldown": self.cooldown,
        }

    @classmethod
    def from_record(cls, record: dict) -> "CommSchedule":
        """Rebuild a schedule from :meth:`to_record` output.

        Instance counters start at 0, as in a fresh schedule — the first
        ``begin_instance`` bumps them to 1, so inherited entries can never
        be mistaken for same-instance recordings (which would mint false
        conflicts).  Raises ``KeyError``/``ValueError``/``TypeError`` on a
        malformed record; callers that load untrusted bytes (the corpus)
        validate first and quarantine failures.
        """
        sched = cls(int(record["directive"]))
        for ent in record["entries"]:
            kind = EntryKind(ent["kind"])
            pre = ent.get("pre_conflict")
            sched.entries[int(ent["block"])] = ScheduleEntry(
                block=int(ent["block"]),
                kind=kind,
                readers=set(ent["readers"]),
                writer=ent["writer"],
                instance=0,
                pre_conflict_kind=EntryKind(pre) if pre else None,
            )
        sched.cooldown = int(record.get("cooldown", 0))
        return sched


class ScheduleStore:
    """Bounded, LRU-evicting home for a protocol's communication schedules.

    Schedule memory on a real machine is finite; a long-running program with
    many directive sites must not grow it without bound.  Eviction is safe by
    construction — a schedule only *anticipates* communication, so losing one
    merely costs first-execution faults while it is relearned.

    Dict-flavoured reads (``in``, ``[]``, ``get``, ``values``) do not
    touch recency; :meth:`fetch` is the use-and-touch accessor.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._store: "OrderedDict[int, CommSchedule]" = OrderedDict()
        self.evictions = 0
        #: optional observer called with each evicted directive id (the
        #: predictive protocol routes this to the tracing bus)
        self.on_evict: Callable[[int], None] | None = None
        #: cooldowns of degraded schedules evicted mid-cooldown, carried
        #: until the directive returns.  Without this, eviction was a
        #: degradation amnesty: a chronically wrong schedule pushed out of
        #: the LRU resumed pre-sending immediately on relearn instead of
        #: sitting out its remaining cooldown instances.
        self._evicted_cooldowns: dict[int, int] = {}

    def _evict_overflow(self) -> None:
        while len(self._store) > self.capacity:
            evicted, sched = self._store.popitem(last=False)
            self.evictions += 1
            if sched.cooldown > 0:
                self._evicted_cooldowns[evicted] = sched.cooldown
            if self.on_evict is not None:
                self.on_evict(evicted)

    def fetch(self, directive_id: int) -> CommSchedule:
        """Get-or-create the schedule for a directive; marks it used.

        A recreated schedule whose predecessor was evicted mid-cooldown
        inherits the remaining cooldown instances.
        """
        sched = self._store.get(directive_id)
        if sched is None:
            sched = CommSchedule(directive_id)
            sched.cooldown = self._evicted_cooldowns.pop(directive_id, 0)
            self._store[directive_id] = sched
            self._evict_overflow()
        else:
            self._store.move_to_end(directive_id)
        return sched

    def insert(self, sched: CommSchedule) -> None:
        """Install a schedule as most-recently used (corpus warm-start, and
        the tests' checkpoint restore)."""
        self._evicted_cooldowns.pop(sched.directive_id, None)
        self._store[sched.directive_id] = sched
        self._store.move_to_end(sched.directive_id)
        self._evict_overflow()

    # -- read-only dict flavour ------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, directive_id: int) -> bool:
        return directive_id in self._store

    def __getitem__(self, directive_id: int) -> CommSchedule:
        return self._store[directive_id]

    def get(self, directive_id: int, default=None):
        return self._store.get(directive_id, default)

    def values(self):
        """The schedules, least- to most-recently used."""
        return self._store.values()
