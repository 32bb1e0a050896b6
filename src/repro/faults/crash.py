"""Crash-stop node failures and coherence-state recovery.

The failure model is **crash-stop with restart**: a node halts at an op
boundary (chosen by the seeded fault injector, or replayed from a crash
script), loses all volatile state — tag table, protocol handler, directory
memory for blocks it is home for — and rejoins ``restart_cycles`` later with
a fresh *incarnation* and cold caches.  Survivors detect the failure after
``detect_cycles`` (the :class:`Watchdog` bounds this by construction) and repair every piece of shared state that referenced the
dead node, so no request waits forever on a message the dead node can no
longer send.

Determinism: crash decisions flow through the same seeded injector as every
other fault, the crash/detect/restart events are ordinary step entries, and
all repair walks iterate in sorted order — a (plan, workload, protocol)
triple replays bit-identically, which is what lets the campaign driver
shrink a failing crash script with ddmin.

Incarnation fencing: messages are stamped with both endpoints' incarnation
numbers at every physical (re)transmission; delivery drops a message if
either endpoint is down or has restarted since the stamp.  The incarnation
bumps at *restart* (not at crash — the ``down`` set covers the outage
window), so traffic from a node's previous life can never leak into its next
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.events import EventKind
from repro.sim.stats import TimeCategory
from repro.util.errors import ConfigError, ProtocolError
from repro.verify.monitor import dead_node_references

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.tempest.machine import Machine, ReplayProcessor
    from repro.tempest.network import Message


@dataclass(frozen=True)
class CrashRecord:
    """One crash-stop failure, as it happened."""

    node: int
    time: float
    phase: int
    op_index: int
    detect_at: float
    restart_at: float

    def __str__(self) -> str:
        return (f"node {self.node} crashed at t={self.time:g} "
                f"(phase {self.phase}, op {self.op_index}), "
                f"detected t={self.detect_at:g}, restarted t={self.restart_at:g}")


class CrashController:
    """Crash/detect/restart lifecycle for one machine.

    Installed by :meth:`repro.faults.plan.FaultPlan.install` when the plan
    can crash nodes; the fault-free fast path (and every message-fault-only
    plan, whose RNG histories must stay bit-identical) never sees it.
    """

    def __init__(self, machine: "Machine", injector: "FaultInjector",
                 plan: "FaultPlan"):
        self.machine = machine
        self.injector = injector
        self.plan = plan
        #: nodes currently dead (crash happened, restart has not)
        self.down: set[int] = set()
        #: dead nodes whose failure the survivors have already repaired
        self.detected: set[int] = set()
        self.incarnations = [0] * machine.config.n_nodes
        #: every crash so far, in event order
        self.log: list[CrashRecord] = []
        self._phase = -1

    def incarnation(self, node: int) -> int:
        return self.incarnations[node]

    # -- arming ------------------------------------------------------------------

    def arm_phase(self, procs, phase_index: int) -> None:
        """Consult the injector once per (node, phase), in node order."""
        self._phase = phase_index
        for proc in procs:
            point = self.injector.crash_point(
                proc.node.id, phase_index, len(proc.ops)
            )
            if point is None:
                continue
            op_index, restart_delay = point
            if restart_delay <= self.plan.detect_cycles:
                raise ConfigError(
                    f"crash script restarts node {proc.node.id} after "
                    f"{restart_delay:g} cycles, inside the detection window "
                    f"({self.plan.detect_cycles:g}); recovery must run first"
                )
            proc.crash_at = op_index
            proc.restart_delay = restart_delay

    # -- the crash ---------------------------------------------------------------

    def crash_now(self, proc: "ReplayProcessor") -> None:
        """The processor reached its crash point; halt it at its local time."""
        self.machine.engine.push_step(proc.t, self, proc)

    def step(self, horizon: float, proc: "ReplayProcessor") -> None:
        """Dispatch a ``(controller, proc)`` lifecycle entry: the crash
        effects of ``proc``'s node while it is up, its restart once down."""
        t = self.machine.engine.now
        if proc.node.id in self.down:
            self.restart(proc, t)
        else:
            self._crash_effects(proc, t)

    def _crash_effects(self, proc: "ReplayProcessor", t: float) -> None:
        """The node dies: volatile state is gone, the outage window opens."""
        node = proc.node.id
        op_index = proc.crash_at
        proc.crash_at = None  # a restarted node does not re-crash on this arm
        self.down.add(node)
        proc.node.tags.clear()
        proc.node.stats.crashes += 1
        proc.waiting = False
        proc.pending_op = None
        self.machine.protocol.on_node_crashed(node, t)
        detect_at = self.machine.watchdog.arm(node, t)
        restart_at = t + proc.restart_delay
        self.log.append(CrashRecord(node=node, time=t, phase=self._phase,
                                    op_index=op_index, detect_at=detect_at,
                                    restart_at=restart_at))
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(EventKind.CRASH, t, node=node, op_index=op_index,
                     detect_at=detect_at, restart_at=restart_at)
        self.machine.engine.push_step(restart_at, self, proc)

    # -- detection (fired by the watchdog) ----------------------------------------

    def detect(self, node: int, t: float) -> None:
        """Survivors repair everything that referenced the dead node."""
        if node not in self.down:  # pragma: no cover - defensive
            return
        self.detected.add(node)
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(EventKind.DETECT, t, node=node)
        transport = self.machine._transport
        if transport is not None:
            transport.forget_node(node)
        self.machine.protocol.on_node_detected_down(node, t)
        # Self-check: recovery must leave no surviving directory entry or
        # predictive schedule referencing the dead node.
        refs = dead_node_references(self.machine, {node})
        if refs:
            raise ProtocolError(
                f"crash recovery left references to dead node {node}: "
                + "; ".join(refs),
                node=node, time=t,
            )

    # -- restart -----------------------------------------------------------------

    def restart(self, proc: "ReplayProcessor", t: float) -> None:
        """The node rejoins: new incarnation, cold caches, rebuilt home state."""
        node = proc.node.id
        record = next(r for r in reversed(self.log) if r.node == node)
        self.incarnations[node] += 1
        self.down.discard(node)
        self.detected.discard(node)
        self.machine.node(node).reset_for_restart()
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(EventKind.RESTART, t, node=node,
                     incarnation=self.incarnations[node],
                     downtime=t - record.time)
        self.machine.protocol.rebuild_home_state(node, t)
        self.machine.protocol.reissue_faults_for_home(node, t)
        # The outage is its own accounting category so per-node cycles still
        # sum exactly to wall time (RunStats.check_conservation).
        proc.node.stats.add(TimeCategory.DOWNTIME, t - record.time)
        # Resume the replay at the exact op the crash interrupted: every op
        # is still executed exactly once, which is what keeps a recovered
        # run differentially identical to the fault-free ground truth.
        proc.t = t
        proc._schedule_run(t)

    # -- delivery fencing ----------------------------------------------------------

    def deliverable(self, msg: "Message") -> bool:
        """Whether a physical arrival may be delivered (incarnation fence)."""
        if msg.src in self.down or msg.dst in self.down:
            return False
        if msg.src_inc != self.incarnations[msg.src]:
            return False
        if msg.dst_inc != self.incarnations[msg.dst]:
            return False
        return True


class Watchdog:
    """Liveness layer: bounds how long a dead node can stall the machine.

    A crash-stop failure is detected exactly ``detect_cycles`` simulated
    cycles after the crash (survivors miss the node's heartbeats); detection
    fires the recovery controller, which repairs directory state and unblocks
    requests stuck on the dead node.  Because detection is an engine entry,
    a barrier stall caused by a dead node is bounded by construction: either
    recovery lets the phase complete, or the drained engine fails fast with a
    deadlock :class:`SimulationError` — the run can never hang.
    """

    def __init__(self, machine: "Machine", detect_cycles: float) -> None:
        self.machine = machine
        self.detect_cycles = detect_cycles
        self.detections = 0

    def arm(self, node: int, t_crash: float) -> float:
        """Queue failure detection for ``node``; returns the detect time."""
        t_detect = t_crash + self.detect_cycles
        self.machine.engine.push_step(t_detect, self, node)
        return t_detect

    def step(self, horizon: float, node: int) -> None:
        """The ``(watchdog, node)`` entry: survivors detect the crash."""
        self.detections += 1
        self.machine.crash_controller.detect(node, self.machine.engine.now)
