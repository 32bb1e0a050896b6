"""The interconnection network model.

A message costs ``msg_latency + per_byte_cost * payload`` cycles of flight
time; coalesced bulk transfers add ``bulk_msg_overhead`` once but amortize it
over many blocks (paper §3.4: "the predictive protocol coalesces neighboring
blocks and transfers them using bulk messages to amortize message startup
costs").  Delivery invokes the destination node's protocol dispatcher through
the discrete-event engine; per-node handler occupancy is modelled by
:class:`repro.tempest.node.Node`.

Fault injection: an optional injector (see :mod:`repro.faults.inject`) may be
attached as ``network.injector``.  Each physical transmission then consults it
and may be dropped, duplicated, or delayed.  With no injector attached (the
default) the send path is byte-for-byte the fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.events import EventKind, NULL_TRACER
from repro.sim.engine import Engine
from repro.util.config import MachineConfig
from repro.util.errors import SimulationError


@dataclass
class Message:
    """One protocol message in flight."""

    kind: str
    src: int
    dst: int
    block: int | None = None
    payload_bytes: int = 0
    #: free-form protocol fields (requester id, block lists, phase ids ...)
    info: dict[str, Any] = field(default_factory=dict)
    bulk: bool = False
    #: per-network id, assigned on first (validated) send; -1 before that
    msg_id: int = -1
    send_time: float = 0.0
    #: reliable-transport channel sequence number (None outside fault runs)
    seq: int | None = None
    #: retransmission count (0 for the first transmission attempt)
    resends: int = 0
    #: sender/receiver incarnation numbers stamped at (re)transmission time;
    #: the crash-recovery delivery fence drops messages whose stamps no
    #: longer match (pre-crash traffic must not reach a restarted node)
    src_inc: int = 0
    dst_inc: int = 0
    #: the receiver's incarnation when its handler completion was queued
    #: (crash plans only); unlike ``dst_inc``, no retransmission rewrites it
    handler_inc: int = 0

    def __repr__(self) -> str:  # compact for trace dumps
        blk = f" blk={self.block}" if self.block is not None else ""
        sq = f" seq={self.seq}" if self.seq is not None else ""
        return f"<{self.kind} {self.src}->{self.dst}{blk}{sq} {self.payload_bytes}B>"


class Network:
    """Delivers messages with configurable latency and bandwidth costs.

    Message ids are allocated per :class:`Network` instance (not from a
    process-global counter), so two machines built in one process produce
    identical traces — the same bug class as the directive-id counter fixed
    in the C** placement pass.
    """

    def __init__(self, engine: Engine, config: MachineConfig):
        self.engine = engine
        self.config = config
        self._deliver: Callable[[Message, float], None] | None = None
        # plain int rather than itertools.count so the tests' checkpoint
        # oracle can capture it
        self._next_msg_id = 0
        self.messages_delivered = 0
        self.bytes_delivered = 0
        #: optional fault injector (repro.faults.inject.FaultInjector)
        self.injector = None
        #: optional node -> incarnation map (crash-recovery controller)
        self.incarnation_of: Callable[[int], int] | None = None
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_fenced = 0
        #: observability sink; Machine.attach_tracer points this at its tracer
        self.obs = NULL_TRACER

    def attach(self, deliver: Callable[[Message, float], None]) -> None:
        """Set the machine-level dispatcher invoked on each delivery."""
        self._deliver = deliver

    def flight_time(self, msg: Message) -> float:
        base = self.config.msg_latency + self.config.per_byte_cost * msg.payload_bytes
        if msg.bulk:
            base += self.config.bulk_msg_overhead
        return base

    def send(self, msg: Message, at: float) -> float:
        """Inject ``msg`` at absolute time ``at``; returns arrival time.

        ``at`` may be in the engine's future (replay processors run ahead of
        the event clock between interactions), but never in its past.

        With a fault injector attached the message may be dropped (no
        delivery is scheduled), duplicated (several deliveries), or delayed;
        the returned time is then the *nominal* fault-free arrival.
        """
        if self._deliver is None:
            raise SimulationError("network not attached to a machine")
        if msg.src == msg.dst:
            raise SimulationError(f"self-send of {msg}",
                                  node=msg.src, message_repr=repr(msg))
        n = self.config.n_nodes
        if not (0 <= msg.src < n and 0 <= msg.dst < n):
            raise SimulationError(f"bad endpoints in {msg}",
                                  message_repr=repr(msg))
        msg.msg_id = self._next_msg_id
        self._next_msg_id += 1
        msg.send_time = at
        if self.incarnation_of is not None:
            # Stamp at every physical (re)transmission: a retry after the
            # peer restarted carries the new incarnation and passes the fence.
            msg.src_inc = self.incarnation_of(msg.src)
            msg.dst_inc = self.incarnation_of(msg.dst)
        nominal = at + self.flight_time(msg)
        obs = self.obs
        if obs.enabled:
            obs.emit(EventKind.MSG_SEND, at, node=msg.src, msg_id=msg.msg_id,
                     msg_kind=msg.kind, dst=msg.dst, block=msg.block,
                     bytes=msg.payload_bytes)

        if self.injector is not None:
            deliveries = self.injector.message_deliveries(msg)
            if not deliveries:
                self.messages_dropped += 1
                if obs.enabled:
                    obs.emit(EventKind.MSG_DROP, at, node=msg.src,
                             msg_id=msg.msg_id, msg_kind=msg.kind, dst=msg.dst)
                return nominal
            if len(deliveries) > 1:
                self.messages_duplicated += len(deliveries) - 1
                if obs.enabled:
                    obs.emit(EventKind.MSG_DUP, at, node=msg.src,
                             msg_id=msg.msg_id, msg_kind=msg.kind,
                             copies=len(deliveries))
            for extra in deliveries:
                self._schedule_delivery(msg, nominal + extra)
            return nominal

        self._schedule_delivery(msg, nominal)
        return nominal

    def _schedule_delivery(self, msg: Message, arrival: float) -> None:
        self.messages_delivered += 1
        self.bytes_delivered += msg.payload_bytes
        self.engine.push_step(arrival, self, msg)

    def step(self, horizon: float, msg: Message) -> None:
        """Deliver ``msg``: the ``(network, msg)`` entry reached its arrival."""
        arrival = self.engine.now
        obs = self.obs
        if obs.enabled:
            obs.emit(EventKind.MSG_RECV, arrival, node=msg.dst,
                     msg_id=msg.msg_id, msg_kind=msg.kind, src=msg.src)
        self._deliver(msg, arrival)
