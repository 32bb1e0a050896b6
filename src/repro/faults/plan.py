"""Fault plans: declarative, seeded descriptions of what to break.

A :class:`FaultPlan` is immutable and fully describes a fault environment in
one of two modes:

* **stochastic** — per-event probabilities drawn from one seeded RNG in
  deterministic engine order, so a (plan, workload, protocol) triple always
  injects the same faults;
* **scripted** — an explicit tuple of :class:`FaultEvent` records (and no
  randomness at all).  Every stochastic run records exactly such a tuple,
  which is what lets the campaign driver replay a failure and shrink it to
  a minimal reproducer.

The all-zero default plan is inert: :meth:`FaultPlan.is_active` is False and
:meth:`FaultPlan.install` arms nothing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro.util.errors import ConfigError

#: event actions that perturb message delivery (need the reliable transport)
MESSAGE_ACTIONS = frozenset({"drop", "dup", "delay"})
#: event actions that perturb predictive schedules
SCHEDULE_ACTIONS = frozenset({"corrupt", "stale"})
#: event actions that kill whole nodes (need the crash-recovery controller)
NODE_ACTIONS = frozenset({"crash"})
ALL_ACTIONS = MESSAGE_ACTIONS | SCHEDULE_ACTIONS | NODE_ACTIONS | {"stall"}

#: serialized fault-plan format; bump only for incompatible changes.  Loading
#: is backward-compatible within a version: fields absent from an old record
#: (e.g. the crash fields added after PR 3) take their dataclass defaults.
PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, keyed to where it struck.

    Keys are *content-based* so scripted replays stay meaningful when other
    events are removed during shrinking:

    * message actions — ``("msg", kind, src, dst, seq, resends, occurrence)``
    * ``stall`` — ``("stall", node, service_index)``
    * ``corrupt`` / ``stale`` — ``("sched", directive_id, instance_index)``
    * ``crash`` — ``("crash", node, phase_index, op_index)``; ``amount`` is
      the restart delay in cycles (crash-stop with mandatory restart)
    """

    action: str
    key: tuple
    amount: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ALL_ACTIONS:
            raise ConfigError(f"unknown fault action {self.action!r}")
        object.__setattr__(self, "key", tuple(self.key))

    def describe(self) -> str:
        if self.key and self.key[0] == "msg":
            _, kind, src, dst, seq, resends, nth = self.key
            where = f"{kind} {src}->{dst} seq={seq} try={resends}"
            if nth:
                where += f" #{nth}"
        elif self.key and self.key[0] == "stall":
            where = f"node {self.key[1]} service #{self.key[2]}"
        elif self.key and self.key[0] == "crash":
            return (f"crash(node {self.key[1]} phase {self.key[2]} "
                    f"op {self.key[3]}) restart +{self.amount:g}cy")
        else:
            where = f"directive {self.key[1]} instance {self.key[2]}"
        amt = f" +{self.amount:g}cy" if self.amount else ""
        return f"{self.action}({where}){amt}"

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"action": self.action, "key": list(self.key),
                "amount": self.amount}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        try:
            return cls(action=data["action"], key=tuple(data["key"]),
                       amount=data.get("amount", 0.0))
        except KeyError as missing:
            raise ConfigError(f"fault event record missing {missing}") from None


@dataclass(frozen=True)
class FaultPlan:
    """An immutable fault environment; see the module docstring for modes."""

    name: str = "custom"
    seed: int = 0
    # stochastic per-event probabilities (ignored when ``events`` is set)
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    stall_rate: float = 0.0
    corrupt_rate: float = 0.0
    stale_rate: float = 0.0
    crash_rate: float = 0.0
    # fault magnitudes
    delay_cycles: float = 256.0
    stall_cycles: float = 512.0
    # crash-stop model: a crashed node is detected by survivors after
    # ``detect_cycles`` and restarts (fresh incarnation, cold caches) after
    # ``restart_cycles``; at most ``max_crashes`` stochastic crashes per run.
    restart_cycles: float = 30_000.0
    detect_cycles: float = 4_000.0
    max_crashes: int = 1
    # resilience budget
    ack_faults: bool = True          # transport acks are themselves faultable
    retry_timeout: float | None = None  # base RTO; None derives per message
    timeout_budget: float = 400_000.0   # cycles before a send is declared dead
    max_retries: int = 10
    #: scripted mode: exactly these events fire, nothing else
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for field in ("drop_rate", "dup_rate", "delay_rate", "stall_rate",
                      "corrupt_rate", "stale_rate", "crash_rate"):
            v = getattr(self, field)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{field}={v} outside [0, 1]")
        for field in ("delay_cycles", "stall_cycles", "timeout_budget"):
            if getattr(self, field) < 0:
                raise ConfigError(f"{field} must be non-negative")
        for field in ("restart_cycles", "detect_cycles"):
            if getattr(self, field) <= 0:
                raise ConfigError(f"{field} must be positive")
        if self.detect_cycles >= self.restart_cycles:
            raise ConfigError(
                f"detect_cycles={self.detect_cycles:g} must be below "
                f"restart_cycles={self.restart_cycles:g}: survivors must "
                f"detect and repair before the node rejoins"
            )
        if self.max_crashes < 0:
            raise ConfigError("max_crashes must be non-negative")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.retry_timeout is not None and self.retry_timeout <= 0:
            raise ConfigError("retry_timeout must be positive")
        object.__setattr__(self, "events", tuple(self.events))

    # -- modes and scope -------------------------------------------------------

    @property
    def scripted(self) -> bool:
        return bool(self.events)

    def is_active(self) -> bool:
        """Whether installing this plan can perturb anything at all."""
        if self.scripted:
            return True
        return any(
            getattr(self, r) > 0.0
            for r in ("drop_rate", "dup_rate", "delay_rate", "stall_rate",
                      "corrupt_rate", "stale_rate", "crash_rate")
        )

    def affects_messages(self) -> bool:
        """Whether the reliable transport is needed under this plan."""
        if self.scripted:
            return any(ev.action in MESSAGE_ACTIONS for ev in self.events)
        return self.drop_rate > 0 or self.dup_rate > 0 or self.delay_rate > 0

    def affects_nodes(self) -> bool:
        """Whether the crash-recovery controller is needed under this plan."""
        if self.scripted:
            return any(ev.action in NODE_ACTIONS for ev in self.events)
        return self.crash_rate > 0

    def install(self, machine) -> None:
        """Arm this plan on ``machine`` (a :class:`repro.tempest.machine.
        Machine`), once, before its first phase.

        An inactive (all-zero) plan is a no-op: the injector, stall hooks,
        reliable transport and crash controller are only installed when the
        plan can actually perturb something, so fault-free runs take the
        unchanged fast path.
        """
        if not self.is_active():
            return
        # deferred: repro.faults.inject imports this module, and a
        # fault-free run loads none of the three
        from repro.faults.crash import CrashController, Watchdog
        from repro.faults.inject import FaultInjector
        from repro.faults.transport import ReliableTransport

        injector = FaultInjector(self)
        machine.fault_injector = injector
        if self.affects_messages():
            machine.network.injector = injector
            machine._transport = ReliableTransport(machine, injector)
        if self.stall_rate > 0.0 or injector.has_scripted("stall"):
            for node in machine.nodes:
                node.stall_hook = injector.stall_hook_for(node.id)
        if self.affects_nodes():
            machine.crash_controller = CrashController(machine, injector, self)
            machine.watchdog = Watchdog(machine, self.detect_cycles)
            machine.network.incarnation_of = machine.crash_controller.incarnation

    # -- derivation ------------------------------------------------------------

    def with_(self, **overrides) -> "FaultPlan":
        return dataclasses.replace(self, **overrides)

    def as_scripted(self, events) -> "FaultPlan":
        """The deterministic replay of one recorded injection history."""
        return self.with_(
            name=f"{self.name}[scripted]",
            drop_rate=0.0, dup_rate=0.0, delay_rate=0.0,
            stall_rate=0.0, corrupt_rate=0.0, stale_rate=0.0,
            crash_rate=0.0,
            events=tuple(events),
        )

    def describe(self) -> str:
        if self.scripted:
            return (f"{self.name}: scripted, {len(self.events)} event(s): "
                    + ", ".join(ev.describe() for ev in self.events[:6])
                    + ("..." if len(self.events) > 6 else ""))
        parts = []
        for label, rate in [
            ("drop", self.drop_rate), ("dup", self.dup_rate),
            ("delay", self.delay_rate), ("stall", self.stall_rate),
            ("corrupt", self.corrupt_rate), ("stale", self.stale_rate),
            ("crash", self.crash_rate),
        ]:
            if rate > 0:
                parts.append(f"{label}={rate:g}")
        return f"{self.name}: seed={self.seed} " + (" ".join(parts) or "inert")

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-ready record; see :data:`PLAN_FORMAT_VERSION`."""
        record = dataclasses.asdict(self)
        record["events"] = [ev.to_dict() for ev in self.events]
        record["format"] = PLAN_FORMAT_VERSION
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Load a record; missing fields take defaults (old plans load)."""
        record = dict(data)
        version = record.pop("format", PLAN_FORMAT_VERSION)
        if version != PLAN_FORMAT_VERSION:
            raise ConfigError(
                f"fault-plan format {version} is not supported "
                f"(this build reads format {PLAN_FORMAT_VERSION})"
            )
        events = tuple(
            FaultEvent.from_dict(ev) for ev in record.pop("events", ())
        )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ConfigError(
                f"fault-plan record has unknown field(s): {sorted(unknown)}"
            )
        return cls(events=events, **record)


#: the plans every release must survive (acceptance criteria in ISSUE 3):
#: all examples/traces/ workloads complete under all three protocols with a
#: clean invariant monitor and a fault-free memory image.
BUNDLED_PLANS: dict[str, FaultPlan] = {
    "drop": FaultPlan(name="drop", drop_rate=0.05),
    "duplicate": FaultPlan(name="duplicate", dup_rate=0.10),
    "delay": FaultPlan(name="delay", delay_rate=0.20, delay_cycles=400.0),
    "stall": FaultPlan(name="stall", stall_rate=0.05, stall_cycles=600.0),
    "stale-schedule": FaultPlan(name="stale-schedule", stale_rate=0.30,
                                corrupt_rate=0.20),
    "chaos": FaultPlan(name="chaos", drop_rate=0.02, dup_rate=0.03,
                       delay_rate=0.05, delay_cycles=200.0,
                       stall_rate=0.02, stall_cycles=300.0,
                       stale_rate=0.10, corrupt_rate=0.05),
}

#: crash-stop plans (ISSUE 4): every run must either complete differentially
#: identical to the fault-free ground truth, or fail fast with a shrunk
#: minimal crash script — never hang past the watchdog bound.
CRASH_PLANS: dict[str, FaultPlan] = {
    "crash": FaultPlan(name="crash", crash_rate=0.15, max_crashes=1),
    "crash-storm": FaultPlan(name="crash-storm", crash_rate=0.30,
                             max_crashes=3, restart_cycles=20_000.0,
                             detect_cycles=3_000.0),
    "crash-lossy": FaultPlan(name="crash-lossy", crash_rate=0.15,
                             max_crashes=1, drop_rate=0.02),
}

#: deliberately hopeless: every transmission is dropped and the budget is
#: tiny, so the transport must fail *fast* with a structured TransportTimeout
#: naming the node, block, and fault event — never hang.
UNRECOVERABLE_PLAN = FaultPlan(
    name="unrecoverable", drop_rate=1.0, timeout_budget=20_000.0, max_retries=3,
)


def save_plan(plan: FaultPlan, path) -> None:
    """Write ``plan`` as JSON, e.g. to archive a shrunk crash script.

    Atomic (write-temp + fsync + rename): a reproducer archive interrupted
    mid-write must not leave a torn script that replays differently."""
    from repro.util.atomicio import atomic_write_json

    atomic_write_json(path, plan.to_dict())


def load_plan(path) -> FaultPlan:
    """Load a plan previously written by :func:`save_plan`."""
    with open(path, "r", encoding="utf-8") as fh:
        return FaultPlan.from_dict(json.load(fh))
