"""The reference simulator: the oracle the production path is held to.

Everything here was production code until the calendar queue learned to
follow a tie-break policy; it was moved here, not rewritten, and is kept
deliberately naive — a binary heap of ``(time, seq, entry)`` items, an
op-at-a-time processor that goes through the public tag and
stats APIs, a dict of tags — so that it shares as little as possible with
what it checks:

* :class:`HeapEngine` / :class:`HeapExplorerEngine` — against
  :class:`repro.sim.engine.CalendarEngine` without / with a policy;
* :class:`Call` — a plain callback as a step entry, for engine tests;
* :class:`ReferenceProcessor` — against
  :class:`repro.tempest.machine.ReplayProcessor`;
* :class:`DictTagTable` — against :class:`repro.tempest.tags.TagTable`;
* :class:`OracleMachine` — a :class:`~repro.tempest.machine.Machine` built
  from the three (``tests.helpers.oracle_machine`` is its factory);
* :func:`check_entry` / :func:`check_directory` — the invariants every
  :class:`~repro.protocols.directory.DirEntry` obeys.

Production code never imports this module.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.obs.events import EventKind
from repro.protocols.directory import Directory, DirEntry, DirState
from repro.sim.engine import Engine
from repro.sim.stats import TimeCategory
from repro.tempest.machine import Machine, TraceOp
from repro.tempest.node import Node
from repro.tempest.tags import AccessTag
from repro.util.errors import ProtocolError, SimulationError

# -- the heap engine -------------------------------------------------------------


class Call:
    """A test-only step object: dispatching ``(Call(fn), token)`` calls
    ``fn()``, so a test can queue a plain callback on any engine."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn

    def step(self, horizon: float, token) -> None:
        self.fn()


class HeapEngine(Engine):
    """The binary-heap event queue: strictly FIFO among same-timestamp
    entries (heap order is ``(time, seq)``).  Heap items are ``(time,
    seq, entry)`` triples; seqs are unique, so an entry never takes part in
    a comparison."""

    def __init__(self, default_max_events: int | None = None) -> None:
        super().__init__(default_max_events)
        self._queue: list[tuple] = []

    def _push(self, time: float, entry: tuple) -> None:
        heapq.heappush(self._queue, (time, self._seq, entry))
        self._seq += 1

    def _check_time(self, time: float) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )

    def push_step(self, time: float, obj, token=-1) -> tuple:
        self._check_time(time)
        entry = (obj, token)
        self._push(time, entry)
        return entry

    def push_steps(self, time: float, entries: list) -> None:
        self._check_time(time)
        for entry in entries:
            self._push(time, entry)

    def cancel(self, time: float, entry: tuple) -> None:
        """Remove the queued item holding ``entry`` at ``time``: a linear
        scan and a re-heapify, nothing lazy."""
        for k, item in enumerate(self._queue):
            if item[0] == time and item[2] is entry:
                del self._queue[k]
                heapq.heapify(self._queue)
                return

    def _next_event(self) -> tuple:
        """Select and remove the next ``(time, seq, entry)`` item to
        dispatch (FIFO); :class:`HeapExplorerEngine` overrides this hook."""
        return heapq.heappop(self._queue)

    def _drain(self, until: float | None, max_events: int | None) -> int:
        dispatched = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            time, _, entry = self._next_event()
            self.now = time
            horizon = self.peek_time()
            r = entry[0].step(math.inf if horizon is None else horizon, entry[1])
            if r is not None:
                self._push(r, entry)
            dispatched += 1
            self._dispatched += 1
            if max_events is not None and dispatched >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a livelocked model"
                )
        if until is not None and self.now < until and not self._queue:
            self.now = until
        return dispatched

    @property
    def pending(self) -> int:
        return len(self._queue)

    def peek_time(self) -> float | None:
        return self._queue[0][0] if self._queue else None


class HeapExplorerEngine(HeapEngine):
    """A heap engine whose same-timestamp dispatch order is
    policy-controlled: every dispatch, the whole same-time frontier is
    popped off the heap and the losers pushed back."""

    def __init__(self, policy, default_max_events: int | None = None) -> None:
        super().__init__(default_max_events)
        self.policy = policy

    def _next_event(self) -> tuple:
        t = self._queue[0][0]
        frontier: list[tuple] = []
        while self._queue and self._queue[0][0] == t:
            frontier.append(heapq.heappop(self._queue))
        # heap pops arrive in (time, seq) order, so the frontier is already
        # sorted by seq — choice indices are therefore stable across replays;
        # a lone entry is no choice point, so the policy is not asked
        i = self.policy.pick(len(frontier)) if len(frontier) > 1 else 0
        chosen = frontier.pop(i)
        for item in frontier:
            heapq.heappush(self._queue, item)
        return chosen


# -- the op-at-a-time processor --------------------------------------------------


class ReferenceProcessor:
    """Replays one node's per-phase op list against the protocol, one op
    at a time through the public tag-table and stats APIs."""

    __slots__ = (
        "machine",
        "node",
        "ops",
        "index",
        "t",
        "waiting",
        "miss_start",
        "pending_op",
        "done",
        "crash_at",
        "restart_delay",
    )

    def __init__(self, machine: "Machine", node: Node, ops: list[TraceOp], start: float):
        self.machine = machine
        self.node = node
        self.ops = ops
        self.index = 0
        self.t = start
        self.waiting = False
        self.miss_start = 0.0
        self.pending_op: TraceOp | None = None
        self.done = False
        #: armed by the crash controller: crash-stop before executing this op
        self.crash_at: int | None = None
        self.restart_delay = 0.0

    # -- execution -------------------------------------------------------------

    def start(self) -> None:
        self._schedule_run(self.t)

    def _schedule_run(self, t: float) -> None:
        """Queue the next dispatch, incarnation-stamped under crash plans.

        The stamp is the node's incarnation *at queue time*: a
        continuation queued before a crash must not fire into the node's
        next life, and one queued while down must not fire at all.
        """
        ctl = self.machine.crash_controller
        inc = -1 if ctl is None else ctl.incarnations[self.node.id]
        self.machine.engine.push_step(t, self, inc)

    def step(self, horizon: float, inc: int) -> None:
        """Dispatch one continuation; ``horizon`` is ignored, because
        :meth:`_run` reads ``peek_time`` itself."""
        ctl = self.machine.crash_controller
        if ctl is not None and (self.node.id in ctl.down
                                or ctl.incarnations[self.node.id] != inc):
            return
        self._run()

    def _run(self) -> None:
        """Process ops inline up to the conservative horizon, then yield."""
        if self.done:
            raise SimulationError(f"processor {self.node.id} ran after completion")
        eng = self.machine.engine
        cfg = self.machine.config
        tags = self.node.tags
        stats = self.node.stats
        horizon = eng.peek_time()
        if horizon is None:
            horizon = math.inf
        ops = self.ops
        n = len(ops)
        progressed = False  # always make progress on >=1 op per dispatch,
        # otherwise same-timestamp processors livelock re-yielding to each
        # other; a tie with a pending event is semantically unordered anyway
        while self.index < n:
            if self.crash_at is not None and self.index >= self.crash_at:
                self.machine.crash_controller.crash_now(self)
                return
            if progressed and self.t >= horizon:
                self._schedule_run(self.t)
                return
            progressed = True
            op = ops[self.index]
            kind = op[0]
            if kind == "c":
                cycles = op[1]
                self.t += cycles
                stats.add(TimeCategory.COMPUTE, cycles)
                self.index += 1
            elif kind == "r" or kind == "w":
                block = op[1]
                if tags.permits(block, kind):
                    self.t += cfg.cache_hit_cost
                    stats.add(TimeCategory.COMPUTE, cfg.cache_hit_cost)
                    stats.local_hits += 1
                    self.index += 1
                    self.machine.note_access(self.node.id, block, kind)
                else:
                    self.waiting = True
                    self.miss_start = self.t
                    self.pending_op = op
                    if kind == "r":
                        stats.read_misses += 1
                    else:
                        stats.write_misses += 1
                    obs = self.machine.obs
                    if obs.enabled:
                        obs.emit(EventKind.MISS_BEGIN, self.t,
                                 node=self.node.id, block=block, access=kind)
                    self.machine.protocol.fault(self, block, kind, self.t)
                    return
            else:
                raise SimulationError(f"unknown trace op {op!r}")
        self.done = True
        self.machine._arrive_barrier(self, self.t)

    def resume(self, t: float) -> None:
        """Called by the protocol when the faulting access has been granted.

        The stall (fault detection, request/response messages, handler
        queueing, invalidation rounds) is charged as remote-data-wait time.
        """
        if not self.waiting:
            raise SimulationError(f"resume of non-waiting processor {self.node.id}")
        if t < self.miss_start:
            raise SimulationError("protocol resumed processor in its past")
        op = self.pending_op
        assert op is not None
        if not self.node.tags.permits(op[1], op[0]):
            raise SimulationError(
                f"protocol resumed node {self.node.id} without granting "
                f"{op[0]!r} on block {op[1]}"
            )
        self.node.stats.add(TimeCategory.REMOTE_WAIT, t - self.miss_start)
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(EventKind.MISS_END, t, node=self.node.id, block=op[1],
                     access=op[0], wait=t - self.miss_start)
        self.machine.note_access(self.node.id, op[1], op[0])
        self.waiting = False
        self.pending_op = None
        # The access completes now: consume the op (it is not a second,
        # separately-counted hit) and continue.
        self.t = t + self.machine.config.cache_hit_cost
        self.node.stats.add(TimeCategory.COMPUTE, self.machine.config.cache_hit_cost)
        self.index += 1
        self._schedule_run(self.t)


# -- the dict tag table ----------------------------------------------------------


class DictTagTable:
    """Per-node block -> tag map.  Missing entries are INVALID.

    ``home_default`` lists blocks this node is home for; they start
    READ_WRITE (the home initially holds its data exclusively).
    """

    __slots__ = ("node", "_tags")

    def __init__(self, node: int):
        self.node = node
        self._tags: dict[int, AccessTag] = {}

    def get(self, block: int) -> AccessTag:
        return self._tags.get(block, AccessTag.INVALID)

    def set(self, block: int, tag: AccessTag) -> None:
        if tag is AccessTag.INVALID:
            self._tags.pop(block, None)
        else:
            self._tags[block] = tag

    def set_run(self, first: int, count: int, tag: AccessTag) -> None:
        for block in range(first, first + count):
            self.set(block, tag)

    def permits(self, block: int, kind: str) -> bool:
        return self.get(block).permits(kind)

    def downgrade(self, block: int) -> None:
        """READ_WRITE -> READ_ONLY (keep data, lose write permission)."""
        if self.get(block) is AccessTag.READ_WRITE:
            self._tags[block] = AccessTag.READ_ONLY

    def invalidate(self, block: int) -> None:
        self._tags.pop(block, None)

    def blocks_with_tag(self, tag: AccessTag) -> list[int]:
        """Blocks holding ``tag``, in ascending block order.

        Sorted (not insertion) order so consumers that *walk* the result —
        crash recovery rebuilding home state, the invariant monitor — are
        deterministic and representation-independent (the production
        byte-array table is naturally block-ordered).
        """
        return sorted(b for b, t in self._tags.items() if t is tag)

    def items(self):
        """Yield ``(block, tag)`` for non-INVALID blocks, ascending.

        The public form of the underlying map: checkpointing uses it
        instead of reaching into ``_tags``.
        """
        return iter(sorted(self._tags.items()))

    def reserve(self, n_blocks: int) -> None:
        """Capacity hint; the dict-backed table has nothing to presize."""

    def __len__(self) -> int:
        return len(self._tags)

    def clear(self) -> None:
        self._tags.clear()


# -- the machine built from them -------------------------------------------------


class OracleMachine(Machine):
    """A :class:`Machine` on the reference simulator: heap engine (the
    explorer when ``policy`` is given), :class:`ReferenceProcessor`,
    :class:`DictTagTable`.  Everything else — protocol, network, fault and
    crash machinery, accounting — is the production code under test."""

    def __init__(self, config, protocol_factory, policy=None) -> None:
        engine = HeapEngine() if policy is None else HeapExplorerEngine(policy)
        super().__init__(config, protocol_factory, engine=engine)
        for node in self.nodes:
            assert len(node.tags) == 0  # nothing to carry over: never run
            node.tags = DictTagTable(node.id)

    def _launch_phase(self, trace, start, phase_index):
        procs = [
            ReferenceProcessor(self, self.nodes[i], trace.ops[i], start)
            for i in range(self.config.n_nodes)
        ]
        if self.crash_controller is not None:
            self.crash_controller.arm_phase(procs, phase_index)
        for p in procs:
            p.start()
        return procs


# -- directory invariants --------------------------------------------------------


def check_entry(entry: DirEntry) -> None:
    """Sanity rules every directory entry obeys in every state."""
    if entry.state == DirState.IDLE:
        if entry.sharers or entry.owner is not None:
            raise ProtocolError(f"IDLE entry with copies: {entry}")
    elif entry.state == DirState.SHARED:
        if not entry.sharers:
            raise ProtocolError(f"SHARED entry without sharers: {entry}")
        if entry.owner is not None:
            raise ProtocolError(f"SHARED entry with owner: {entry}")
        if entry.home in entry.sharers:
            raise ProtocolError(f"home listed as its own sharer: {entry}")
    elif entry.state == DirState.EXCLUSIVE:
        if entry.owner is None or entry.sharers:
            raise ProtocolError(f"EXCLUSIVE entry malformed: {entry}")
        if entry.owner == entry.home:
            raise ProtocolError(f"home as remote owner: {entry}")
    elif entry.state in DirState.BUSY:
        if entry.in_service is None:
            raise ProtocolError(f"busy entry with no request in service: {entry}")
    else:
        raise ProtocolError(f"unknown directory state: {entry}")


def check_directory(directory: Directory) -> None:
    """:func:`check_entry` over every entry ``directory`` knows."""
    for entry in directory.known():
        check_entry(entry)
