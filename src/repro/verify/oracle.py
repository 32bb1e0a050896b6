"""Run a workload under one protocol + interleaving; differential compare.

The oracle's claim: a coherence protocol must never change *observable*
execution — the per-block reader/writer sets and the final memory image
(last writer + write count per block) are fully determined by the access
trace, whatever protocol or legal message order serves it.  Pre-sending in
particular (the paper's optimization) may only move data earlier, never
alter what the processors read and write.

:func:`run_workload` replays one session through a machine whose engine
follows a :class:`~repro.sim.engine.TieBreakPolicy`, with the
:class:`~repro.verify.monitor.InvariantMonitor` attached; any protocol
error, simulation deadlock, or invariant failure surfaces as a structured
:class:`~repro.verify.monitor.CoherenceViolation` carrying the seed and
the recorded tie-break schedule.  :func:`differential_check` then compares
each protocol's observables against the trace-derived ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.factory import make_machine
from repro.sim.stats import RunStats
from repro.tempest.tracefile import replay_session
from repro.util.errors import ProtocolError, SimulationError, TransportTimeout
from repro.verify.interleave import FifoPolicy, TieBreakPolicy
from repro.verify.monitor import CoherenceViolation, InvariantMonitor
from repro.verify.workload import Workload, expected_observables


@dataclass
class Observables:
    """What one run exposed to the outside world."""

    protocol: str
    readers: dict[int, set[int]] = field(default_factory=dict)
    writers: dict[int, set[int]] = field(default_factory=dict)
    image: dict[int, tuple[int, int]] = field(default_factory=dict)
    stats: RunStats | None = None
    #: faults actually injected during the run (empty without a fault plan)
    fault_events: list = field(default_factory=list)
    #: learned schedule records (``CommSchedule.to_record``), filled only
    #: when the run was asked to harvest for the durable corpus
    harvest: list = field(default_factory=list)

    def record(self, node: int, block: int, kind: str) -> None:
        if kind == "r":
            self.readers.setdefault(block, set()).add(node)
        else:
            self.writers.setdefault(block, set()).add(node)
            last, count = self.image.get(block, (node, 0))
            self.image[block] = (node, count + 1)


def run_workload(
    workload: Workload,
    protocol: str,
    policy: TieBreakPolicy | None = None,
    max_events: int | None = 2_000_000,
    fault_plan=None,
    tracer=None,
    warm=None,
    harvest: bool = False,
) -> Observables:
    """Replay ``workload`` under ``protocol`` with policy-driven tie-breaks.

    ``fault_plan`` optionally arms a fault plan on the machine (its
    ``install(machine)``, :meth:`repro.faults.plan.FaultPlan.install`); an
    inactive plan changes nothing.  ``tracer`` optionally attaches a
    :class:`repro.obs.events.Tracer` (``machine.attach_tracer``) so fault
    campaigns can export event timelines.  The engine follows the policy:
    FIFO tie-breaking (``None`` or a plain :class:`FifoPolicy`) installs
    none — the engine's one drain dispatches in exactly that order and
    there are no choices to record; any exploratory or replay policy is
    installed on the engine (:func:`make_machine`), and the same drain
    consults it only at choice points.  ``warm`` optionally seeds corpus
    schedule records into the protocol before the run (see
    :meth:`PredictiveProtocol.warm_seed`); ``harvest=True`` collects the
    learned schedules into ``Observables.harvest`` afterwards so the
    caller can persist them.  Raises
    :class:`CoherenceViolation` on any invariant failure, protocol error,
    transport timeout, or deadlock, with the seed, schedule, and injected
    fault events attached for replay.
    """
    fifo = policy is None or type(policy) is FifoPolicy
    policy = policy if policy is not None else FifoPolicy()
    machine = make_machine(workload.config, protocol,
                           policy=None if fifo else policy, warm=warm)
    machine.engine.default_max_events = max_events
    if fault_plan is not None:
        fault_plan.install(machine)
    if tracer is not None:
        machine.attach_tracer(tracer)
    monitor = InvariantMonitor(seed=workload.seed, policy=policy)
    monitor.attach(machine)
    obs = Observables(protocol=protocol)
    machine.access_hooks.append(obs.record)

    def injected() -> list:
        inj = machine.fault_injector
        return list(inj.injected) if inj is not None else []

    try:
        obs.stats = replay_session(workload.session, machine)
        monitor.check(machine, phase="end-of-run")
    except CoherenceViolation as violation:
        violation.fault_events = injected()
        raise
    except (ProtocolError, SimulationError) as exc:
        if isinstance(exc, TransportTimeout):
            invariant = "transport-timeout"
        elif "deadlock" in str(exc):
            invariant = "deadlock"
        else:
            invariant = "protocol-error"
        violation = CoherenceViolation(
            invariant, str(exc),
            protocol=protocol, phase="(during run)",
            seed=workload.seed, schedule=list(policy.choices),
        )
        violation.fault_events = injected()
        raise violation from exc
    obs.fault_events = injected()
    if harvest:
        store = getattr(machine.protocol, "schedules", None)
        if store is not None:
            obs.harvest = [s.to_record() for s in store.values()
                           if s.entries]
    return obs


def differential_check(workload: Workload, observed: dict[str, Observables]) -> None:
    """Compare every protocol's observables against the trace ground truth.

    Each run's observables must match the program-order expectation exactly;
    transitively, all protocols therefore agree with each other.  Raises
    :class:`CoherenceViolation` (invariant ``differential``) on mismatch.
    """
    expected = expected_observables(workload)
    for proto, obs in observed.items():
        for label, got, want in [
            ("reader sets", obs.readers, expected["readers"]),
            ("writer sets", obs.writers, expected["writers"]),
            ("final memory image", obs.image, expected["image"]),
        ]:
            if got != want:
                diff_blocks = sorted(
                    b for b in set(got) | set(want) if got.get(b) != want.get(b)
                )[:8]
                detail = (
                    f"{proto} diverged from the trace-determined {label} on "
                    f"blocks {diff_blocks}: "
                    + "; ".join(
                        f"block {b}: got {got.get(b)!r}, expected {want.get(b)!r}"
                        for b in diff_blocks[:3]
                    )
                )
                raise CoherenceViolation(
                    "differential", detail,
                    protocol=proto, phase="end-of-run", seed=workload.seed,
                )
