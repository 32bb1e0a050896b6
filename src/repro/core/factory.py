"""Construction helpers: machine + protocol by name.

The paper evaluates each application under several protocol configurations;
this registry is the single place the harness, tests, and examples use to
instantiate them.
"""

from __future__ import annotations

from repro.core.predictive import PredictiveProtocol
from repro.protocols.stache import StacheProtocol
from repro.protocols.writeupdate import WriteUpdateProtocol
from repro.sim.engine import CalendarEngine
from repro.tempest.machine import Machine
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError

PROTOCOLS = {
    StacheProtocol.name: StacheProtocol,
    PredictiveProtocol.name: PredictiveProtocol,
    WriteUpdateProtocol.name: WriteUpdateProtocol,
}


def make_machine(config: MachineConfig, protocol: str = "stache",
                 policy=None, warm=None) -> Machine:
    """Create a simulated machine running the named coherence protocol.

    ``protocol`` is one of ``"stache"`` (the write-invalidate default),
    ``"predictive"`` (the paper's contribution), or ``"write-update"``
    (the hand-optimized SPMD baseline's custom protocol).

    Every machine is the same simulator (see
    :class:`~repro.tempest.machine.Machine`).  ``policy`` optionally
    installs a :class:`~repro.sim.engine.TieBreakPolicy` on its
    engine: same-timestamp events then dispatch in the order the policy
    picks instead of FIFO — how ``repro verify`` explores and replays
    interleavings.

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
    machine = Machine(config, cls, engine=CalendarEngine(policy=policy))
    if warm and hasattr(machine.protocol, "warm_seed"):
        machine.protocol.warm_seed(warm)
    return machine
