"""The discrete-event engine.

A minimal, deterministic event-queue simulator: events are ``(time, seq,
callback)`` triples ordered by time with FIFO tie-breaking via the sequence
number, so runs are exactly reproducible.  Callbacks may schedule further
events; :meth:`Engine.run` drains the queue.
"""

from __future__ import annotations

import heapq
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


class Engine:
    """A deterministic discrete-event simulator.

    Usage::

        eng = Engine()
        eng.schedule(10.0, lambda: ...)
        eng.run()

    ``eng.now`` is the timestamp of the event currently being dispatched
    (0.0 before the first event).  Scheduling into the past raises
    :class:`SimulationError` — that always indicates a modelling bug.
    """

    def __init__(self, default_max_events: int | None = None) -> None:
        self.now: float = 0.0
        #: applied when run() is called without an explicit max_events, so
        #: a protocol bug that livelocks (under an adversarial tie-break
        #: order, or a fault plan) raises instead of hanging the campaign
        self.default_max_events = default_max_events
        self._queue: list[Event] = []
        self._seq: int = 0
        self._dispatched: int = 0
        self._running = False
        #: optional observability sink (repro.obs tracer); None keeps the
        #: drain loop's epilogue to a single identity check
        self.obs = None

    # -- scheduling ----------------------------------------------------------

    def schedule(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run at absolute ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        ev = Event(time, self._seq, fn)
        self._seq += 1
        heapq.heappush(self._queue, ev)
        return ev

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, fn)

    # -- execution -----------------------------------------------------------

    def _prune_cancelled_front(self) -> None:
        """Drop cancelled events from the head of the queue.

        The cancel contract: :meth:`Event.cancel` only flags the event —
        it stays queued until a queue operation walks past it.  Every
        entry point that reads the queue head (:meth:`peek_time`,
        :meth:`_next_event`) must prune flagged events first, or a
        cancelled frontier would make ``peek_time`` report a stale time
        that no live event will ever dispatch at.  (The calendar queue in
        :mod:`repro.fastpath.calqueue` has the same obligation per slot:
        an all-cancelled slot must be deleted, not just skipped —
        regression-tested against both engines in ``tests/fastpath``.)
        """
        q = self._queue
        while q and q[0].cancelled:
            heapq.heappop(q)

    def _next_event(self) -> Event | None:
        """Select and remove the next event to dispatch.

        The base engine is strictly FIFO among same-timestamp events (heap
        order is ``(time, seq)``).  :class:`repro.verify.interleave.ExplorerEngine`
        overrides this hook to explore alternative legal tie-break orders.
        """
        self._prune_cancelled_front()
        if not self._queue:
            return None
        return heapq.heappop(self._queue)

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

    def _drain(self, until: float | None, max_events: int | None) -> int:
        """The dispatch loop behind :meth:`run` (the queue representation's
        half; :class:`repro.fastpath.calqueue.FastEngine` overrides it)."""
        dispatched = 0
        while True:
            t = self.peek_time()
            if t is None:
                break
            if until is not None and t > until:
                break
            ev = self._next_event()
            if ev is None:
                break
            self.now = ev.time
            ev.fn()
            dispatched += 1
            self._dispatched += 1
            if max_events is not None and dispatched >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a livelocked model"
                )
        if until is not None and self.now < until and not self._queue:
            self.now = until
        return dispatched

    @property
    def pending(self) -> int:
        """Number of not-yet-dispatched (and not cancelled) events.

        Cancelled events are pruned from the queue here rather than merely
        skipped: quiescence checks call this at every phase barrier, so a
        long fault run with many cancelled retry timers would otherwise both
        re-scan an ever-growing heap and report a "drained" queue that still
        holds garbage (checkpointing requires the queue to be truly empty).
        """
        if any(ev.cancelled for ev in self._queue):
            self._queue = [ev for ev in self._queue if not ev.cancelled]
            heapq.heapify(self._queue)
        return len(self._queue)

    @property
    def total_dispatched(self) -> int:
        return self._dispatched

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or None if the queue is empty."""
        self._prune_cancelled_front()
        return self._queue[0].time if self._queue else None
