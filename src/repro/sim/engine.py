"""The discrete-event engine's contract.

A minimal, deterministic event-queue simulator: events are ``(time, seq,
callback)`` triples ordered by time with FIFO tie-breaking via the sequence
number, so runs are exactly reproducible.  Callbacks may schedule further
events; :meth:`Engine.run` drains the queue.

:class:`Engine` is the queue-agnostic half — clock, sequence and dispatch
counters, the ``run`` guard and its observability epilogue.  The one
production queue is the calendar queue of
:class:`repro.fastpath.calqueue.FastEngine`; the binary-heap queue it is
differentially tested against lives under ``tests/`` (``tests/oracle.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from repro.util.errors import SimulationError


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordering is (time, seq); the callback itself
    never participates in comparisons."""

    time: float
    seq: int
    fn: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class Engine(ABC):
    """A deterministic discrete-event simulator.

    Usage::

        eng = FastEngine()
        eng.schedule(10.0, lambda: ...)
        eng.run()

    ``eng.now`` is the timestamp of the event currently being dispatched
    (0.0 before the first event).  Scheduling into the past raises
    :class:`SimulationError` — that always indicates a modelling bug.

    The cancel contract every queue honours: :meth:`Event.cancel` only
    flags the event — it stays queued until a queue operation walks past
    it — so :meth:`peek_time` must never report the time of a cancelled
    frontier and :attr:`pending` must never count one (regression-tested
    in ``tests/fastpath/test_stale_peek.py``).
    """

    def __init__(self, default_max_events: int | None = None) -> None:
        self.now: float = 0.0
        #: applied when run() is called without an explicit max_events, so
        #: a protocol bug that livelocks (under an adversarial tie-break
        #: order, or a fault plan) raises instead of hanging the campaign
        self.default_max_events = default_max_events
        self._seq: int = 0
        self._dispatched: int = 0
        self._running = False
        #: optional observability sink (repro.obs tracer); None keeps the
        #: drain loop's epilogue to a single identity check
        self.obs = None

    # -- scheduling ----------------------------------------------------------

    @abstractmethod
    def schedule(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run at absolute ``time``."""

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, fn)

    # -- execution -----------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Dispatch events in order until the queue empties.

        ``until`` stops the run once the next event is strictly later than
        that time (the event stays queued).  ``max_events`` guards against
        runaway models (``None`` falls back to ``default_max_events``).
        Returns the number of events dispatched by this call.
        """
        if max_events is None:
            max_events = self.default_max_events
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        try:
            dispatched = self._drain(until, max_events)
        finally:
            self._running = False
        if self.obs is not None and self.obs.enabled and dispatched:
            self.obs.emit("engine.run", self.now, dispatched=dispatched)
        return dispatched

    @abstractmethod
    def _drain(self, until: float | None, max_events: int | None) -> int:
        """The dispatch loop behind :meth:`run` (the queue's half)."""

    @property
    @abstractmethod
    def pending(self) -> int:
        """Number of not-yet-dispatched (and not cancelled) events.

        Cancelled events are pruned from the queue here rather than merely
        skipped: quiescence checks call this at every phase barrier, and
        checkpointing requires a zero to mean the queue is truly empty.
        """

    @property
    def total_dispatched(self) -> int:
        return self._dispatched

    @abstractmethod
    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or None if the queue is empty."""
