"""A reliable transport over the (now possibly lossy) network.

Installed by :meth:`repro.faults.plan.FaultPlan.install` only when the
plan can perturb message delivery; the fault-free fast path never
sees it.  The design is a classic per-channel reliable link:

* every protocol message gets a per-(src, dst)-channel **sequence number**;
* the receiver **acks every physical arrival** immediately (selective ack,
  kind :data:`TACK`; acks bypass handler occupancy and are never themselves
  tracked), suppresses **duplicates**, and **holds back** out-of-order
  arrivals so the protocol observes each channel in FIFO order — the
  ordering assumption the coherence protocols were built on;
* the sender keeps an unacked-send record with a **retry timer** (a
  ``(transport, pending)`` step entry, removed from the queue on ack);
  timeouts retransmit with exponential backoff until acked, and exhaust into
  a structured :class:`~repro.util.errors.TransportTimeout` naming the node,
  block, and the fault event that doomed the message — an unrecoverable
  plan fails fast instead of hanging.

Retries/timeouts/suppressed duplicates are counted in
:class:`repro.sim.stats.NodeStats`; physical drop/duplicate counts live on
the :class:`~repro.tempest.network.Network`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import EventKind
from repro.tempest.network import Message
from repro.util.errors import SimulationError, TransportTimeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.inject import FaultInjector
    from repro.tempest.machine import Machine

#: transport-level acknowledgement; consumed by the transport, never
#: delivered to a coherence protocol (distinct from the protocol's MK.ACK)
TACK = "TACK"


class _Pending:
    """One unacked send and its queued retry timer (entry and due time)."""

    __slots__ = ("msg", "first_sent", "retries", "timer", "due", "rto")

    def __init__(self, msg: Message, first_sent: float, rto: float):
        self.msg = msg
        self.first_sent = first_sent
        self.retries = 0
        self.timer = None
        self.due = 0.0
        self.rto = rto


class _Channel:
    """Per-(src, dst) ordered-delivery state."""

    __slots__ = ("next_out", "next_expected", "held", "pending")

    def __init__(self) -> None:
        self.next_out = 0        # sender side: next seq to assign
        self.next_expected = 0   # receiver side: next seq to deliver
        self.held: dict[int, Message] = {}      # out-of-order arrivals
        self.pending: dict[int, _Pending] = {}  # unacked sends


class ReliableTransport:
    """Sequencing, ack/retry, dedup, and in-order hold-back for one machine."""

    def __init__(self, machine: "Machine", injector: "FaultInjector"):
        self.machine = machine
        self.injector = injector
        self.plan = injector.plan
        self._channels: dict[tuple[int, int], _Channel] = {}

    def _channel(self, src: int, dst: int) -> _Channel:
        ch = self._channels.get((src, dst))
        if ch is None:
            ch = self._channels[(src, dst)] = _Channel()
        return ch

    def _base_rto(self, msg: Message) -> float:
        """Base retransmission timeout for one message.

        Acks are sent on physical arrival (no handler queueing), so the
        true round trip is flight(msg) + flight(ack); the slack absorbs
        injected delivery delays before a spurious — though harmless,
        duplicates are suppressed — retransmission fires.
        """
        if self.plan.retry_timeout is not None:
            return self.plan.retry_timeout
        cfg = self.machine.config
        rtt = self.machine.network.flight_time(msg) + cfg.msg_latency
        return 2.0 * rtt + self.plan.delay_cycles + 4.0 * cfg.handler_cost

    # -- sender side ------------------------------------------------------------

    def send(self, msg: Message, at: float) -> float:
        ch = self._channel(msg.src, msg.dst)
        msg.seq = ch.next_out
        ch.next_out += 1
        pend = _Pending(msg, at, self._base_rto(msg))
        ch.pending[msg.seq] = pend
        nominal = self.machine.network.send(msg, at)
        self._arm_timer(pend, at)
        return nominal

    def _arm_timer(self, pend: _Pending, now: float) -> None:
        pend.due = now + pend.rto * (2 ** pend.retries)
        pend.timer = self.machine.engine.push_step(pend.due, self, pend)

    def _cancel_timer(self, pend: _Pending) -> None:
        if pend.timer is not None:
            self.machine.engine.cancel(pend.due, pend.timer)

    def step(self, horizon: float, pend: _Pending) -> None:
        """The retry timer of ``pend`` fired: retransmit or give up."""
        msg = pend.msg
        now = self.machine.engine.now
        ch = self._channels.get((msg.src, msg.dst))
        if ch is None or ch.pending.get(msg.seq) is not pend:
            # an ack or forget_node removes the timer with the send
            raise SimulationError(
                f"retry timer fired for {msg} after it left the unacked sends",
                node=msg.src, time=now, block=msg.block, message_repr=repr(msg),
            )
        stats = self.machine.node(msg.src).stats
        plan = self.plan
        obs = self.machine.obs
        if (pend.retries >= plan.max_retries
                or now - pend.first_sent >= plan.timeout_budget):
            stats.transport_timeouts += 1
            if obs.enabled:
                obs.emit(EventKind.TIMEOUT, now, node=msg.src, dst=msg.dst,
                         block=msg.block, retries=pend.retries)
            doomed = self.injector.last_fault_for(msg.src, msg.dst, msg.seq)
            raise TransportTimeout(
                f"gave up on {msg} after {pend.retries} retries "
                f"({now - pend.first_sent:g} cycles)",
                node=msg.dst, time=now, block=msg.block,
                message_repr=repr(msg), event=doomed,
            )
        pend.retries += 1
        stats.transport_retries += 1
        if obs.enabled:
            obs.emit(EventKind.RETRY, now, node=msg.src, dst=msg.dst,
                     block=msg.block, attempt=pend.retries)
        msg.resends = pend.retries
        self.machine.network.send(msg, now)
        self._arm_timer(pend, now)

    # -- receiver side ----------------------------------------------------------

    def on_arrival(self, msg: Message, t: float) -> list[Message]:
        """Filter one physical arrival; returns protocol-visible messages.

        Acks and duplicates return ``[]``; an in-order arrival returns
        itself plus any consecutively-held successors.
        """
        if msg.kind == TACK:
            self._on_ack(msg)
            return []
        self._send_ack(msg, t)
        ch = self._channel(msg.src, msg.dst)
        seq = msg.seq
        if seq is None:
            return [msg]  # untracked message (not sent through transport)
        if seq < ch.next_expected or seq in ch.held:
            self.machine.node(msg.dst).stats.duplicates_suppressed += 1
            obs = self.machine.obs
            if obs.enabled:
                obs.emit(EventKind.DUP_SUPPRESSED, t, node=msg.dst,
                         src=msg.src, seq=seq)
            return []
        if seq > ch.next_expected:
            ch.held[seq] = msg
            return []
        out = [msg]
        ch.next_expected += 1
        while ch.next_expected in ch.held:
            out.append(ch.held.pop(ch.next_expected))
            ch.next_expected += 1
        return out

    def _send_ack(self, msg: Message, t: float) -> None:
        ack = Message(TACK, src=msg.dst, dst=msg.src, block=msg.block,
                      info={"ack": msg.seq}, seq=msg.seq)
        # straight to the wire: acks are not themselves tracked or retried,
        # but they do cross the faulty network (a lost ack costs a
        # retransmission, which dedup then absorbs)
        self.machine.network.send(ack, t)

    def _on_ack(self, ack: Message) -> None:
        # the acked channel is the reverse of the ack's own direction
        ch = self._channel(ack.dst, ack.src)
        pend = ch.pending.pop(ack.info["ack"], None)
        if pend is not None:
            self._cancel_timer(pend)

    # -- crash recovery ----------------------------------------------------------

    def forget_node(self, node: int) -> None:
        """Drop both directions of every channel involving ``node``.

        Called when survivors detect a crash: retry timers to the dead node
        leave the queue (their sends are handled by crash recovery, not
        retransmission) and sequence state is discarded on both sides, so
        after the restart each peer pair opens a fresh channel from seq 0 —
        a held-back out-of-order backlog from the previous incarnation could
        otherwise wedge the channel forever.
        """
        for key in [k for k in self._channels if node in k]:
            ch = self._channels.pop(key)
            for pend in ch.pending.values():
                self._cancel_timer(pend)

    def has_unacked(self, src: int, dst: int) -> bool:
        """Whether channel (src, dst) still has sends awaiting acknowledgement."""
        ch = self._channels.get((src, dst))
        return ch is not None and bool(ch.pending)

    # -- quiescence -------------------------------------------------------------

    @property
    def unacked(self) -> int:
        return sum(len(ch.pending) for ch in self._channels.values())

    @property
    def held_back(self) -> int:
        return sum(len(ch.held) for ch in self._channels.values())
