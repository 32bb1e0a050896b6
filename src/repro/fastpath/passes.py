"""The pass-group pipeline: analyze → specialize → schedule.

Modeled on pymtl3's staged simulation passes: each phase trace is compiled
once, up front, into static dispatch state, so the per-event hot loop does
no dict lookups, no closure allocation, and no virtual protocol calls.

* :class:`AnalyzeTracePass` — one linear scan validating every op (shape,
  kind, non-negative charges) and sizing the tag tables from the allocated
  address space.  An op-at-a-time interpreter would surface the same
  modelling bugs lazily (mid-run, when the bad op executes); rejecting
  them before the phase starts is strictly more conservative and keeps
  the hot loop free of per-op validation.
* :class:`SpecializeProcessorsPass` — builds one
  :class:`~repro.tempest.machine.ReplayProcessor` per node against
  presized :class:`~repro.tempest.tags.TagTable` storage.
* :class:`StaticSchedulePass` — launches the phase as one calendar slot:
  N step entries in node order with consecutive sequence numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tempest.machine import Machine, PhaseTrace, ReplayProcessor
from repro.util.errors import SimulationError


@dataclass
class PhaseProgram:
    """The compiled form of one phase: what the passes hand each other."""

    trace: PhaseTrace
    start: float
    op_count: int = 0
    tag_blocks: int = 0
    procs: list[ReplayProcessor] = field(default_factory=list)


class AnalyzeTracePass:
    """Validate the trace and size the packed state, in one linear scan."""

    def run(self, prog: PhaseProgram, machine: Machine) -> None:
        count = 0
        for node_ops in prog.trace.ops:
            for op in node_ops:
                kind = op[0]
                if kind == "c":
                    if op[1] < 0:
                        raise SimulationError(
                            f"negative compute charge in trace op {op!r}"
                        )
                elif kind == "r" or kind == "w":
                    if op[1] < 0:
                        raise SimulationError(
                            f"negative block index in trace op {op!r}"
                        )
                else:
                    raise SimulationError(f"unknown trace op {op!r}")
            count += len(node_ops)
        prog.op_count = count
        if machine.config.cache_hit_cost < 0:
            # the engine's fused single-op dispatch proves "exactly one op
            # before re-yield" from non-negative time charges
            raise SimulationError(
                f"fast path requires cache_hit_cost >= 0, "
                f"got {machine.config.cache_hit_cost}"
            )
        # Presize tag storage to cover every allocated block, so hot-loop
        # byte reads never fall off the end (growth stays possible; it is
        # an optimization, not a correctness requirement).
        end = max((r.end for r in machine.addr_space.regions), default=0)
        bs = machine.config.block_size
        prog.tag_blocks = (end + bs - 1) // bs


class SpecializeProcessorsPass:
    """Build per-node specialized processors over presized packed tags."""

    def run(self, prog: PhaseProgram, machine: Machine) -> None:
        for node in machine.nodes:
            node.tags.reserve(prog.tag_blocks)
        prog.procs = [
            ReplayProcessor(machine, machine.nodes[i], prog.trace.ops[i],
                            prog.start)
            for i in range(machine.config.n_nodes)
        ]


class StaticSchedulePass:
    """Install the phase's start batch as one calendar slot.

    Entries go in node order with consecutive sequence numbers — the
    (time, seq) frontier N per-processor ``schedule`` calls would build.
    """

    def run(self, prog: PhaseProgram, machine: Machine) -> None:
        ctl = machine.crash_controller
        if ctl is None:
            entries = [(p, -1) for p in prog.procs]
        else:
            entries = [(p, ctl.incarnations[p.node.id]) for p in prog.procs]
        machine.engine.push_steps(prog.start, entries)


class FastPathPipeline:
    """Drives the pass groups for one machine.

    ``compile`` runs analyze + specialize (the machine then arms any crash
    plan on the returned processors); ``launch`` runs the schedule pass,
    after which the engine drains the phase.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.compile_passes = [AnalyzeTracePass(), SpecializeProcessorsPass()]
        self.schedule_pass = StaticSchedulePass()

    def compile(self, trace: PhaseTrace, start: float) -> PhaseProgram:
        prog = PhaseProgram(trace=trace, start=start)
        for p in self.compile_passes:
            p.run(prog, self.machine)
        return prog

    def launch(self, prog: PhaseProgram) -> None:
        self.schedule_pass.run(prog, self.machine)
