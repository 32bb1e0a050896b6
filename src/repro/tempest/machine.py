"""The simulated DSM machine and the trace-replay execution model.

Applications execute in two passes (DESIGN.md §5.1): a *value pass* computes
real numerics and records, per processor, an ordered trace of block-level
shared accesses and compute charges; this module replays those traces through
a coherence protocol on a discrete-event simulation of the machine.

A phase trace is replayed as follows.  All processors start simultaneously
(phases are barrier-separated).  Each processor consumes its ops: compute
charges advance its local clock; accesses its tag table permits cost
``cache_hit_cost``; anything else faults into the protocol, which exchanges
messages (with network latency and per-node handler occupancy) and resumes
the processor when the access is granted.  A processor that finishes its ops
arrives at the phase barrier; the barrier releases ``barrier_latency`` after
the last arrival, and each node's wait is accounted as synchronization time.

Processors may run *ahead* of the event clock while executing only local
work, but never past the next scheduled event (which could invalidate a tag
they are about to consult) — the classic conservative-time-window rule.

Traces can come from files, so every op is validated before its phase
starts (:meth:`Machine._check_ops`); the op interpreter
(:meth:`ReplayProcessor.step`) trusts the ops it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.obs.events import EventKind, NULL_TRACER, Tracer
from repro.sim.engine import CalendarEngine, Engine
from repro.sim.stats import PhaseBreakdown, RunStats, TimeCategory
from repro.tempest.addrspace import AddressSpace
from repro.tempest.network import Message, Network
from repro.tempest.node import Node
from repro.util.config import MachineConfig
from repro.util.errors import SimulationError

#: Trace operations: ("r", block), ("w", block), ("c", cycles)
TraceOp = tuple

_COMPUTE = TimeCategory.COMPUTE


@dataclass
class PhaseTrace:
    """The recorded shared-access trace of one parallel phase.

    ``ops[p]`` is processor *p*'s ordered list of operations.
    """

    name: str
    ops: list[list[TraceOp]]

    def op_count(self) -> int:
        return sum(len(o) for o in self.ops)


class ReplayProcessor:
    """Replays one node's per-phase op list against the protocol.

    Dispatched from the calendar queue
    (:class:`~repro.sim.engine.CalendarEngine`) as a ``(proc,
    incarnation)`` step entry — the queue carries the crash-restart
    incarnation stamp as an opaque token — by calling :meth:`step`, the
    one op interpreter.  Tag checks read the tag
    table's byte array directly.  The COMPUTE accumulator and local-hit
    counter live in ``_acc`` / ``_hits`` between dispatches and flush to
    ``stats`` at every *observable* exit (miss, crash, barrier) — nothing
    reads them between yields — and ``machine.note_access`` is inlined
    (same effects, same hook calls).

    Every float addition against the COMPUTE accumulator, every yield
    point (one op minimum per dispatch, then re-yield at the conservative
    horizon) and every sequence-number allocation is bit-identical to the
    op-at-a-time reference interpreter in ``tests/oracle.py``, which the
    differential suite in ``tests/sim/`` holds this class to.
    """

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
        "_acc", "_hits", "_data", "_n", "_nid", "_hit",
        "_accessed", "_pwrites", "_hooks",
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
        stats = node.stats
        # cached hot state; _acc/_hits are canonical between flush points
        self._acc = stats.cycles[_COMPUTE]
        self._hits = stats.local_hits
        self._data = node.tags._data  # bytearray identity is stable
        self._n = len(ops)
        self._nid = node.id
        self._hit = machine.config.cache_hit_cost
        self._accessed = machine.group_accessed
        self._pwrites = machine.phase_writes
        self._hooks = machine.access_hooks

    # -- execution -------------------------------------------------------------

    def _schedule_run(self, t: float) -> None:
        """Queue the next dispatch, incarnation-stamped under crash plans.

        The stamp is the node's incarnation *at schedule time*: a
        continuation scheduled before a crash must not fire into the node's
        next life, and one scheduled while down must not fire at all.
        """
        ctl = self.machine.crash_controller
        inc = -1 if ctl is None else ctl.incarnations[self.node.id]
        self.machine.engine.push_step(t, self, inc)

    # -- cold exits of step() --------------------------------------------------

    def _flush(self) -> None:
        stats = self.node.stats
        stats.cycles[_COMPUTE] = self._acc
        stats.local_hits = self._hits

    def _done_exit(self) -> None:
        self._flush()
        self.done = True
        self.machine._arrive_barrier(self, self.t)

    def _crash_exit(self) -> None:
        self._flush()
        self.machine.crash_controller.crash_now(self)

    def _miss_exit(self, op) -> None:
        self._flush()
        kind = op[0]
        b = op[1]
        t = self.t
        stats = self.node.stats
        self.waiting = True
        self.miss_start = t
        self.pending_op = op
        if kind == "r":
            stats.read_misses += 1
        else:
            stats.write_misses += 1
        machine = self.machine
        obs = machine.obs
        if obs.enabled:
            obs.emit(EventKind.MISS_BEGIN, t, node=self._nid, block=b,
                     access=kind)
        machine.protocol.fault(self, b, kind, t)

    def step(self, horizon: float, inc: int) -> float | None:
        """Process ops inline up to the conservative ``horizon``.

        Returns the yield time (the engine re-queues the continuation,
        allocating the same sequence number ``_schedule_run`` would) or
        None when the dispatch ended in a miss, crash, or barrier
        arrival.  ``horizon`` is the engine's next-live-event time
        (``inf`` when the queue is empty).  ``inc`` is the incarnation
        stamp the entry was queued with (``-1`` without a crash plan): a
        stale or down incarnation makes this dispatch a no-op.

        The check order per op: crash guard, then horizon (skipped before
        the first op — always make progress on >= 1 op per dispatch,
        otherwise same-timestamp processors livelock re-yielding to each
        other; a tie with a pending event is semantically unordered
        anyway), then the op itself.  The prologue loads only what a
        compute op needs, so a one-op dispatch stays cheap; the hit-path
        state is loaded on the first access.
        """
        if inc >= 0:
            ctl = self.machine.crash_controller
            if self._nid in ctl.down or ctl.incarnations[self._nid] != inc:
                return None
        if self.done:
            raise SimulationError(f"processor {self._nid} ran after completion")
        i = self.index
        n = self._n
        if i >= n:  # empty trace: arrive immediately
            self._done_exit()
            return None
        ca = self.crash_at
        if ca is None:
            ca = n + 1
        elif i >= ca:
            self._crash_exit()
            return None
        ops = self.ops
        t = self.t
        acc = self._acc
        hits = 0  # local hits this dispatch, added to _hits at the exit
        data = None
        while True:
            op = ops[i]
            kind = op[0]
            if kind == "r":
                b = op[1]
                if data is None:
                    data = self._data
                    limit = len(data)
                    hit = self._hit
                    nid = self._nid
                    accessed = self._accessed
                    hooks = self._hooks
                if b < limit and data[b]:
                    t += hit
                    acc += hit
                    hits += 1
                    i += 1
                    accessed.add((nid, b))
                    if hooks:
                        for h in hooks:
                            h(nid, b, "r")
                else:
                    self.index = i
                    self.t = t
                    self._acc = acc
                    self._hits += hits
                    self._miss_exit(op)
                    return None
            elif kind == "c":
                c = op[1]
                t += c
                acc += c
                i += 1
            else:  # "w": _check_ops admits no other kind
                b = op[1]
                if data is None:
                    data = self._data
                    limit = len(data)
                    hit = self._hit
                    nid = self._nid
                    accessed = self._accessed
                    hooks = self._hooks
                if b < limit and data[b] == 2:
                    t += hit
                    acc += hit
                    hits += 1
                    i += 1
                    accessed.add((nid, b))
                    self._pwrites.add((nid, b))
                    if hooks:
                        for h in hooks:
                            h(nid, b, "w")
                else:
                    self.index = i
                    self.t = t
                    self._acc = acc
                    self._hits += hits
                    self._miss_exit(op)
                    return None
            if i >= n:
                self.index = i
                self.t = t
                self._acc = acc
                self._hits += hits
                self._done_exit()
                return None
            if i >= ca:
                self.index = i
                self.t = t
                self._acc = acc
                self._hits += hits
                self._crash_exit()
                return None
            if t >= horizon:
                self.index = i
                self.t = t
                self._acc = acc
                if hits:
                    self._hits += hits
                return t

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
        stats = self.node.stats
        stats.add(TimeCategory.REMOTE_WAIT, t - self.miss_start)
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
        stats.add(TimeCategory.COMPUTE, self.machine.config.cache_hit_cost)
        self.index += 1
        # the miss exit flushed, and the charges above went to stats
        # directly: re-sync the cached accumulators before the next dispatch
        self._acc = stats.cycles[_COMPUTE]
        self._hits = stats.local_hits
        self._schedule_run(self.t)


class Machine:
    """A simulated N-node DSM machine running one coherence protocol.

    The protocol is supplied as a factory ``protocol_factory(machine)`` so
    protocols can hold a back-reference without an import cycle.  There is
    one timing path: a :class:`~repro.sim.engine.CalendarEngine` (built
    here unless one is handed in, e.g. carrying a tie-break policy),
    byte-array tag tables, and one :class:`ReplayProcessor` per node,
    launched by :meth:`_launch_phase`.
    """

    def __init__(self, config: MachineConfig, protocol_factory,
                 engine: Engine | None = None) -> None:
        self.config = config
        self.engine = engine if engine is not None else CalendarEngine()
        self.addr_space = AddressSpace(config)
        self.network = Network(self.engine, config)
        self.stats = RunStats(config.n_nodes)
        self.nodes = [Node(i, stats=self.stats.nodes[i]) for i in range(config.n_nodes)]
        self.clock: float = 0.0  # barrier-release time of the last phase
        #: per-category across-node cycle totals at the end of the last phase;
        #: run_phase stores the deltas on each PhaseBreakdown so the phase
        #: breakdowns telescope exactly to the node accumulators
        self._phase_cycle_marks: dict[TimeCategory, float] = {
            c: 0.0 for c in TimeCategory
        }
        self.current_directive: int | None = None
        #: (node, block) pairs touched since the current group began
        self.group_accessed: set[tuple[int, int]] = set()
        #: (node, block) written during the current phase (for write-update)
        self.phase_writes: set[tuple[int, int]] = set()
        self._barrier_arrivals: dict[int, float] = {}
        self._phase_running = False
        #: optional event sink: when set, every begin_group/run_phase/
        #: end_group appends ("begin_group", id) / ("phase", trace) /
        #: ("end_group",) — a complete session recording that
        #: repro.tempest.tracefile can save and replay on other machines
        self.recorder: list | None = None
        #: observers called as ``hook(node, block, kind)`` on every completed
        #: shared access (hits and granted faults alike) — the differential
        #: oracle in repro.verify records per-block reader/writer sets here
        self.access_hooks: list = []
        #: observers called as ``hook(machine, trace)`` after each phase's
        #: barrier releases — the invariant monitor checks quiescence here
        self.phase_hooks: list = []
        #: fault-injection state (None on the fault-free fast path); set
        #: by repro.faults.plan.FaultPlan.install, like the crash state
        self.fault_injector = None
        self._transport = None
        #: crash-recovery state (None unless the plan can crash nodes)
        self.crash_controller = None
        self.watchdog = None
        #: phases run so far; keys the per-(node, phase) crash decisions
        self.phase_index = 0
        #: observability sink (repro.obs); the default null tracer makes
        #: every instrumented site a single ``if obs.enabled`` check
        self.obs: Tracer = NULL_TRACER
        #: the coherence protocol (a repro.protocols.base.BaseProtocol)
        self.protocol = protocol_factory(self)
        self.network.attach(self._deliver)

    # -- plumbing ---------------------------------------------------------------

    def home(self, block: int) -> int:
        return self.addr_space.home_of_block(block)

    def node(self, i: int) -> Node:
        return self.nodes[i]

    def is_down(self, node: int) -> bool:
        ctl = self.crash_controller
        return ctl is not None and node in ctl.down

    def _deliver(self, msg: Message, t: float) -> None:
        ctl = self.crash_controller
        if ctl is not None and not ctl.deliverable(msg):
            self.network.messages_fenced += 1
            return
        if self._transport is not None:
            for accepted in self._transport.on_arrival(msg, t):
                self._dispatch(accepted, t)
        else:
            self._dispatch(msg, t)

    def _dispatch(self, msg: Message, t: float) -> None:
        self.nodes[msg.src].stats.messages_sent += 1
        self.nodes[msg.src].stats.bytes_sent += msg.payload_bytes
        self.protocol.on_message(msg, t)

    def send(self, msg: Message, at: float) -> float:
        if self._transport is not None:
            return self._transport.send(msg, at)
        return self.network.send(msg, at)

    def attach_tracer(self, tracer: Tracer) -> None:
        """Route this machine's (and its network's and engine's) events to
        ``tracer``; pass :data:`NULL_TRACER` to detach."""
        self.obs = tracer
        self.network.obs = tracer
        self.engine.obs = tracer if tracer.enabled else None

    def note_access(self, node: int, block: int, kind: str) -> None:
        """Record that ``node`` touched ``block`` (pre-send usefulness and
        write-update bookkeeping)."""
        self.group_accessed.add((node, block))
        if kind == "w":
            self.phase_writes.add((node, block))
        for hook in self.access_hooks:
            hook(node, block, kind)

    def was_accessed(self, node: int, block: int) -> bool:
        return (node, block) in self.group_accessed

    # -- phase groups (compiler directives) ---------------------------------------

    def begin_group(self, directive_id: int) -> None:
        """Enter a compiler-directed phase group: pre-send per the schedule.

        For protocols without a pre-send phase this only sets the recording
        context.  The pre-send work plus its closing barrier are charged to
        the PREDICTIVE category.
        """
        if self._phase_running:
            raise SimulationError("begin_group during a running phase")
        if self.recorder is not None:
            self.recorder.append(("begin_group", directive_id))
        self.current_directive = directive_id
        self.group_accessed.clear()
        start = self.clock
        obs = self.obs
        if obs.enabled:
            obs.set_directive(directive_id)
            obs.emit(EventKind.GROUP_BEGIN, start)
        send_done = self.protocol.begin_group(directive_id, start)
        self.engine.run()
        if send_done is not None:
            # A node is done with pre-send when it has finished walking its
            # own schedule AND installed everything pre-sent to it.
            completions = [
                max(send_done[i], self.nodes[i].handler_busy_until, start)
                for i in range(self.config.n_nodes)
            ]
            release = max(completions) + self.config.barrier_latency
            release = max(release, self.engine.now)
            for node in self.nodes:
                # The whole node is occupied by the pre-send phase from its
                # start until the closing barrier releases.
                node.stats.add(TimeCategory.PREDICTIVE, release - start)
            self.clock = release
            if obs.enabled:
                obs.emit(EventKind.PRESEND_PHASE, start,
                         cycles=release - start)

    def end_group(self) -> None:
        if self.recorder is not None and self.current_directive is not None:
            self.recorder.append(("end_group",))
        if self.current_directive is not None:
            self.protocol.end_group(self.current_directive, self.clock)
            obs = self.obs
            if obs.enabled:
                obs.emit(EventKind.GROUP_END, self.clock)
                obs.set_directive(None)
        self.current_directive = None

    # -- phase execution -----------------------------------------------------------

    def run_phase(self, trace: PhaseTrace) -> PhaseBreakdown:
        """Replay one barrier-terminated parallel phase.

        The trace is checked in full before any machine state changes, so
        a rejected phase leaves the machine as it was.
        """
        if len(trace.ops) != self.config.n_nodes:
            raise SimulationError(
                f"trace has {len(trace.ops)} processor streams, machine has "
                f"{self.config.n_nodes} nodes"
            )
        if self._phase_running:
            raise SimulationError("run_phase is not reentrant")
        self._check_ops(trace)
        if self.recorder is not None:
            self.recorder.append(("phase", trace))
        self._phase_running = True
        start = self.clock
        self.phase_writes.clear()
        self._barrier_arrivals = {}
        misses_before = self.stats.misses
        hits_before = self.stats.local_hits
        msgs_before = self.stats.messages
        phase_index = self.phase_index
        self.phase_index += 1
        obs = self.obs
        if obs.enabled:
            obs.begin_phase(trace.name, self.current_directive, start)
        procs = self._procs = self._launch_phase(trace, start, phase_index)
        self.engine.run()
        if len(self._barrier_arrivals) != self.config.n_nodes:
            missing = [p.node.id for p in procs if not p.done]
            crashed = ""
            if self.crash_controller is not None and self.crash_controller.log:
                crashed = ("; crash history: "
                           + "; ".join(str(r) for r in self.crash_controller.log))
            raise SimulationError(
                f"phase {trace.name!r}: deadlock — processors {missing} never "
                f"reached the barrier (protocol dropped a resume?){crashed}"
            )
        arrivals = self.protocol.adjust_barrier(dict(self._barrier_arrivals))
        release = max(arrivals.values()) + self.config.barrier_latency
        # Protocol traffic may outlast the barrier (e.g. unsolicited pushes
        # still in flight); the next phase cannot start before the engine
        # has caught up with it.
        release = max(release, self.engine.now)
        for node_id, arrived in arrivals.items():
            self.nodes[node_id].stats.add(TimeCategory.SYNCH, release - arrived)
        self.clock = release
        self._phase_running = False
        if obs.enabled:
            obs.emit(EventKind.BARRIER_RELEASE, release)
            obs.end_phase(
                release,
                misses=self.stats.misses - misses_before,
                hits=self.stats.local_hits - hits_before,
                messages=self.stats.messages - msgs_before,
            )
        breakdown = PhaseBreakdown(
            trace.name,
            self.current_directive,
            start,
            release,
            misses=self.stats.misses - misses_before,
            hits=self.stats.local_hits - hits_before,
            messages=self.stats.messages - msgs_before,
            cycles=self._phase_cycle_delta(),
        )
        self.stats.phases.append(breakdown)
        for hook in self.phase_hooks:
            hook(self, trace)
        return breakdown

    def _check_ops(self, trace: PhaseTrace) -> None:
        """Validate every op of the phase before it starts.

        The op interpreter (:meth:`ReplayProcessor.step`) carries no per-op
        validation: a compute charge is a number in ``[0, inf)``, a block
        is a non-negative ``int`` and every kind is ``r``, ``w`` or ``c``.
        The rule that a step at ``horizon ==`` its own time runs exactly
        one op rests on those non-negative, non-NaN time charges.
        """
        for nid, node_ops in enumerate(trace.ops):
            op = None
            try:
                for op in node_ops:
                    kind, v = op
                    if kind == "c":
                        if not 0 <= v < inf:
                            raise SimulationError(
                                f"phase {trace.name!r}, node {nid}: compute "
                                f"charge not in [0, inf) in trace op {op!r}"
                            )
                    elif kind == "r" or kind == "w":
                        if type(v) is not int or v < 0:
                            raise SimulationError(
                                f"phase {trace.name!r}, node {nid}: block "
                                f"not an int >= 0 in trace op {op!r}"
                            )
                    else:
                        raise SimulationError(
                            f"phase {trace.name!r}, node {nid}: unknown "
                            f"trace op {op!r}"
                        )
            except (TypeError, ValueError) as exc:
                raise SimulationError(
                    f"phase {trace.name!r}, node {nid}: malformed trace op "
                    f"{op!r} ({exc})"
                ) from exc
        if self.config.cache_hit_cost < 0:
            raise SimulationError(
                f"the replay requires cache_hit_cost >= 0, "
                f"got {self.config.cache_hit_cost}"
            )

    def _launch_phase(self, trace: PhaseTrace, start: float,
                      phase_index: int) -> list[ReplayProcessor]:
        """Build the phase's processors, arm any crash plan on them, and
        queue their first dispatch at ``start``.

        The ops were checked by :meth:`_check_ops`.  The first dispatch of
        every processor lands in one calendar slot, in node order; from
        there the engine calls :meth:`ReplayProcessor.step` for every
        continuation.

        The one seam the differential suite needs: its reference machine
        (``tests/oracle.py``) overrides this to launch op-at-a-time
        interpreters instead.
        """
        config = self.config
        # Presize tag storage to cover every allocated block before any
        # processor caches the byte array, so hot-loop reads never fall off
        # its end (growth stays possible: this is not a correctness rule).
        end = max((r.end for r in self.addr_space.regions), default=0)
        bs = config.block_size
        for node in self.nodes:
            node.tags.reserve((end + bs - 1) // bs)
        procs = [ReplayProcessor(self, node, trace.ops[node.id], start)
                 for node in self.nodes]
        ctl = self.crash_controller
        if ctl is None:
            entries = [(p, -1) for p in procs]
        else:
            ctl.arm_phase(procs, phase_index)
            entries = [(p, ctl.incarnations[p._nid]) for p in procs]
        self.engine.push_steps(start, entries)
        return procs

    def _phase_cycle_delta(self) -> dict[str, float]:
        """Advance the per-category marks; return this phase's nonzero deltas.

        Pre-send charges from an intervening ``begin_group`` are included in
        the next phase's delta, so the breakdowns always telescope to the
        node accumulators.
        """
        delta: dict[str, float] = {}
        for c in TimeCategory:
            total = sum(node.stats.cycles[c] for node in self.nodes)
            if total != self._phase_cycle_marks[c]:
                delta[c.value] = total - self._phase_cycle_marks[c]
                self._phase_cycle_marks[c] = total
        return delta

    def _arrive_barrier(self, proc: ReplayProcessor, t: float) -> None:
        if proc.node.id in self._barrier_arrivals:
            raise SimulationError(f"node {proc.node.id} arrived at barrier twice")
        self._barrier_arrivals[proc.node.id] = t
        obs = self.obs
        if obs.enabled:
            obs.emit(EventKind.BARRIER_ARRIVE, t, node=proc.node.id)

    # -- finishing --------------------------------------------------------------------

    def finish(self) -> RunStats:
        """Close out the run and return its statistics."""
        self.stats.wall_time = self.clock
        self.stats.check_conservation()
        return self.stats

