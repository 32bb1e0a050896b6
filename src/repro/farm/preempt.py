"""Checkpoint-sliced runs: preempt a long job and resume it elsewhere.

:func:`sliced_run` is the preemptible twin of
:func:`repro.verify.oracle.run_workload` for FIFO-ordered replays: it
feeds the session to the machine a few events at a time and, between
slices, consults a ``should_preempt`` callback.  On preemption it steps
forward to the next quiescent event boundary (phase barriers are the only
checkpointable points — the retry-forward loop mirrors
``tests/recovery/test_checkpoint.py``), takes a
:func:`repro.recovery.checkpoint.snapshot_machine` checkpoint, and
returns a JSON-safe **resume envelope**: the snapshot, the event cursor,
and the partial :class:`~repro.verify.oracle.Observables`.  Feeding the
envelope back as ``resume=`` on any worker restores the machine
(:func:`~repro.recovery.checkpoint.restore_machine`) and finishes the run
— bit-identically to the uninterrupted run, which is exactly the
determinism guarantee the checkpoint tests already prove for the
underlying snapshot format.
"""

from __future__ import annotations

from repro.core.factory import make_machine
from repro.recovery.checkpoint import restore_machine, snapshot_machine
from repro.tempest.tracefile import replay_session
from repro.util.errors import ProtocolError, SimulationError, TransportTimeout
from repro.verify.monitor import CoherenceViolation, InvariantMonitor
from repro.verify.oracle import Observables
from repro.verify.workload import Workload

#: session events replayed between preemption checks
DEFAULT_SLICE = 4


def serialize_observables(obs: Observables) -> dict:
    """JSON-safe form of the replay-visible observables (not the stats)."""
    return {
        "protocol": obs.protocol,
        "readers": [[b, sorted(ns)] for b, ns in sorted(obs.readers.items())],
        "writers": [[b, sorted(ns)] for b, ns in sorted(obs.writers.items())],
        "image": [[b, [w, c]] for b, (w, c) in sorted(obs.image.items())],
    }


def deserialize_observables(data: dict) -> Observables:
    obs = Observables(protocol=data["protocol"])
    obs.readers = {b: set(ns) for b, ns in data["readers"]}
    obs.writers = {b: set(ns) for b, ns in data["writers"]}
    obs.image = {b: (w, c) for b, (w, c) in data["image"]}
    return obs


def sliced_run(
    workload: Workload,
    protocol: str,
    fault_plan=None,
    max_events: int | None = 2_000_000,
    should_preempt=None,
    resume: dict | None = None,
    slice_events: int = DEFAULT_SLICE,
    warm=None,
) -> tuple[str, object]:
    """Run ``workload`` under ``protocol`` in preemptible slices (FIFO order).

    Returns ``("done", Observables)`` — identical to what
    ``run_workload(workload, protocol, fault_plan=...)`` under FIFO
    tie-breaking produces — or ``("preempted", envelope)`` when
    ``should_preempt()`` fired and a quiescent checkpoint was reached.
    ``warm`` seeds corpus schedule records on a *fresh* start only — a
    resumed run's snapshot already restored the live schedules, which
    outrank the corpus.  Violations raise exactly as
    :func:`~repro.verify.oracle.run_workload` raises them, fault events
    attached.
    """
    events, regions = workload.session
    if resume is None:
        cursor = 0
        machine = make_machine(workload.config, protocol, warm=warm)
        if fault_plan is not None:
            machine.install_fault_plan(fault_plan)
        obs = Observables(protocol=protocol)
        first_regions = regions
    else:
        cursor = resume["cursor"]
        machine = restore_machine(resume["snapshot"])
        obs = deserialize_observables(resume["obs"])
        first_regions = []  # the snapshot already restored region state
    machine.engine.default_max_events = max_events
    # FIFO order has no choice points: violations carry an empty schedule
    monitor = InvariantMonitor(seed=workload.seed)
    monitor.attach(machine)
    machine.access_hooks.append(obs.record)

    def injected() -> list:
        inj = machine.fault_injector
        return list(inj.injected) if inj is not None else []

    def envelope() -> dict:
        return {
            "cursor": cursor,
            "snapshot": snapshot_machine(machine),
            "obs": serialize_observables(obs),
        }

    try:
        while cursor < len(events):
            upto = min(cursor + max(1, slice_events), len(events))
            replay_session((events[cursor:upto], regions), machine,
                           regions=first_regions, finish=False)
            first_regions = []
            cursor = upto
            if cursor >= len(events):
                break
            if should_preempt is None or not should_preempt():
                continue
            # preempt: step to the next quiescent boundary (a slice can end
            # mid-recovery, where snapshots are refused)
            env = None
            while True:
                try:
                    env = envelope()
                    break
                except SimulationError:
                    if cursor >= len(events):
                        break  # run the close-out instead; nothing to save
                    replay_session(([events[cursor]], regions), machine,
                                   regions=[], finish=False)
                    cursor += 1
            if env is None:
                break
            return "preempted", env
        obs.stats = machine.finish()
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
            seed=workload.seed, schedule=[],
        )
        violation.fault_events = injected()
        raise violation from exc
    obs.fault_events = injected()
    return "done", obs
