"""Construction helpers: machine + protocol by name.

The paper evaluates each application under several protocol configurations;
this registry is the single place the harness, tests, and examples use to
instantiate them.
"""

from __future__ import annotations

from repro.core.predictive import PredictiveProtocol
from repro.protocols.stache import StacheProtocol
from repro.protocols.writeupdate import WriteUpdateProtocol
from repro.tempest.machine import Machine
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError

PROTOCOLS = {
    StacheProtocol.name: StacheProtocol,
    PredictiveProtocol.name: PredictiveProtocol,
    WriteUpdateProtocol.name: WriteUpdateProtocol,
}


def make_machine(config: MachineConfig, protocol: str = "stache",
                 engine=None, warm=None) -> Machine:
    """Create a simulated machine running the named coherence protocol.

    ``protocol`` is one of ``"stache"`` (the write-invalidate default),
    ``"predictive"`` (the paper's contribution), or ``"write-update"``
    (the hand-optimized SPMD baseline's custom protocol).

    This is the one place the timing path is chosen, and it is chosen from
    the engine, never from a switch.  With no ``engine`` (every production
    caller under FIFO tie-breaking) the machine runs on the compiled path
    (:mod:`repro.fastpath`): a calendar-queue
    :class:`~repro.fastpath.calqueue.FastEngine`, packed tag tables and the
    analyze/specialize/schedule pipeline.  A caller-supplied ``FastEngine``
    gets the same.  Any other engine — the verification subsystem's
    :class:`~repro.verify.interleave.ExplorerEngine`, whose policy-driven
    tie-breaks the batched calendar dispatch cannot honour, or the plain
    heap :class:`~repro.sim.engine.Engine` the differential tests use as
    the oracle — gets the reference :class:`~repro.tempest.machine.
    ReplayProcessor` and dict-backed tags.  The two are bit-identical under
    FIFO order (``tests/fastpath``), and a mixed machine cannot be built
    here.

    ``warm`` optionally supplies schedule records
    (``CommSchedule.to_record`` dicts, e.g. from the durable corpus) seeded
    into the protocol before the run so pre-sends start at iteration 1;
    protocols without schedule support silently ignore it.
    """
    cls = PROTOCOLS.get(protocol)
    if cls is None:
        raise ConfigError(
            f"unknown protocol {protocol!r}; available: {sorted(PROTOCOLS)}"
        )
    # Imported lazily; repro.fastpath subclasses repro.tempest.machine types.
    from repro.fastpath.calqueue import FastEngine

    if engine is None:
        engine = FastEngine()
    machine = Machine(config, cls, engine=engine)
    if isinstance(engine, FastEngine):
        machine.use_fastpath()
    if warm and hasattr(machine.protocol, "warm_seed"):
        machine.protocol.warm_seed(warm)
    return machine
