"""The discrete-event engine: its contract and its calendar queue.

A minimal, deterministic event-queue simulator: events are ``(time, seq,
callback)`` triples ordered by time with FIFO tie-breaking via the sequence
number, so runs are exactly reproducible.  Callbacks may schedule further
events; :meth:`Engine.run` drains the queue.

:class:`Engine` is the queue-agnostic half — clock, sequence and dispatch
counters, the ``run`` guard and its observability epilogue.  The one
production queue is :class:`CalendarEngine`; the binary-heap queue it is
differentially tested against lives under ``tests/`` (``tests/oracle.py``).

The calendar queue
------------------

A binary-heap engine pays for every event three times: an :class:`Event`
allocation, a closure allocation for the callback, and
``heappush``/``heappop`` with dataclass ``__lt__`` comparisons.  Profiling
the Table-1 workloads (``repro profile``) shows those three costs
dominating the drain loop.

:class:`CalendarEngine` keeps the exact dispatch semantics — (time, seq)
order with FIFO tie-break, ``until``/``max_events``/``pending``/
``peek_time`` behaviour, the same ``_seq`` allocation per scheduled item —
but stores the queue as a *calendar*: a dict mapping each distinct
timestamp to its slot (a list of entries) plus a small heap of the distinct
slot times.  Because sequence numbers are allocated globally in increasing
order, every slot list is seq-ascending by construction and never needs
sorting; a whole same-timestamp batch dispatches with one dict pop and one
heap pop.

Two kinds of entry share a slot:

* :class:`Event` instances from :meth:`~CalendarEngine.schedule` — the
  generic (cancellable) path, used by protocols, transports and timers;
* bare ``(obj, token)`` tuples from :meth:`~CalendarEngine.push_step` —
  step entries, dispatched by calling ``obj.step(horizon, token)`` so the
  hot replay loop allocates no Event and no closure.  ``horizon`` is the
  time of the next live entry (``inf`` on an empty queue); a returned time
  re-queues the same tuple with one new seq, ``None`` drops it.  The
  token is opaque here: the processor reads it as its crash-restart
  incarnation, and a dispatch that does nothing still counts.

Two drains, one queue
---------------------

Same-timestamp entries are semantically unordered, and a slot *is* that
frontier: every live entry at the earliest time, in seq order.  With no
:class:`TieBreakPolicy` installed the slot is dispatched front to back as
one batch (:meth:`CalendarEngine._drain`, FIFO); with one installed, each
dispatch is ``policy.pick`` over the slot's live remainder
(:meth:`CalendarEngine._drain_policy`) — see :mod:`repro.verify.interleave`
for what a choice point and the concrete policies are.  Both drains
dispatch a step entry the same way.

Stale-peek pruning
------------------

A slot whose entries are *all* cancelled would keep ``peek_time``
reporting that slot's stale frontier time (and ``pending`` counting
garbage) unless peeking deletes the dead slot and pops its heap time.
:meth:`CalendarEngine._peek_future` performs that pruning; the contract is
stated on :class:`Engine` and regression-tested against this queue and the
heap oracle in ``tests/sim``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf
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


class TieBreakPolicy:
    """Decides which of several same-timestamp events dispatches first.

    The interface :class:`CalendarEngine` consults; the concrete policies
    live in :mod:`repro.verify.interleave`.
    """

    def __init__(self) -> None:
        #: index chosen at each choice point (frontier size 1 is skipped)
        self.choices: list[int] = []
        #: frontier size at each recorded choice point
        self.frontiers: list[int] = []

    def choose(self, frontier: list[Event]) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def pick(self, frontier: list[Event]) -> int:
        """Record-keeping wrapper around :meth:`choose`."""
        if len(frontier) == 1:
            return 0
        i = self.choose(frontier)
        self.choices.append(i)
        self.frontiers.append(len(frontier))
        return i

    def describe(self) -> str:
        return type(self).__name__


class Engine(ABC):
    """A deterministic discrete-event simulator.

    Usage::

        eng = CalendarEngine()
        eng.schedule(10.0, lambda: ...)
        eng.run()

    ``eng.now`` is the timestamp of the event currently being dispatched
    (0.0 before the first event).  Scheduling into the past raises
    :class:`SimulationError` — that always indicates a modelling bug.

    The cancel contract every queue honours: :meth:`Event.cancel` only
    flags the event — it stays queued until a queue operation walks past
    it — so :meth:`peek_time` must never report the time of a cancelled
    frontier and :attr:`pending` must never count one (regression-tested
    in ``tests/sim/test_stale_peek.py``).
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


class CalendarEngine(Engine):
    """The production :class:`Engine`: a calendar queue with step entries.

    Behavioural contract (checked by the Hypothesis differential suite):
    for any sequence of ``schedule``/``cancel``/``run`` calls, dispatch
    order, ``now``, ``pending``, ``peek_time``, ``total_dispatched`` and
    ``max_events`` errors are identical to the heap oracle's — under FIFO
    order with no ``policy``, and choice for choice under any policy.
    """

    def __init__(self, default_max_events: int | None = None,
                 policy: TieBreakPolicy | None = None) -> None:
        super().__init__(default_max_events)
        #: tie-break policy over same-timestamp entries; None is FIFO, on
        #: the batched drain (which never consults a policy)
        self.policy = policy
        #: time -> seq-ascending list of Event | (obj, token)
        self._slots: dict[float, list] = {}
        #: heap of distinct slot times present in ``_slots``
        self._times: list[float] = []
        #: batch currently being dispatched (run() in progress), or None;
        #: peek_time/pending must see its not-yet-dispatched remainder
        self._cur_list: list | None = None
        self._cur_time: float = 0.0
        self._cur_idx: int = 0

    # -- scheduling ----------------------------------------------------------

    def schedule(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute ``time`` (generic, cancellable)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        ev = Event(time, self._seq, fn)
        self._seq += 1
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = [ev]
            heappush(self._times, time)
        else:
            slot.append(ev)
        return ev

    def push_step(self, time: float, obj, token: int = -1) -> None:
        """Schedule a step entry without Event/closure overhead.

        ``obj.step(horizon, token)`` runs when the entry dispatches and
        counts as one dispatch whatever it does.  Step entries are never
        cancelled — nothing in the model cancels a processor continuation.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        self._seq += 1
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = [(obj, token)]
            heappush(self._times, time)
        else:
            slot.append((obj, token))

    def push_steps(self, time: float, entries: list) -> None:
        """Batch form of :meth:`push_step`: one slot, N entries, N seqs.

        How :meth:`~repro.tempest.machine.Machine._launch_phase` starts a
        phase: entries land in one calendar slot in node order, mirroring
        the reference path's N ``schedule`` calls at the phase start time.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        if not entries:
            return
        self._seq += len(entries)
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = list(entries)
            heappush(self._times, time)
        else:
            slot.extend(entries)

    # -- queue inspection ----------------------------------------------------

    def _peek_future(self) -> float | None:
        """Earliest slot time holding a live entry; prunes dead slots.

        This is where the stale-peek bug is fixed: leading cancelled
        events are compacted away and an all-cancelled slot is deleted
        outright (its heap time popped), so a frontier of cancelled
        timers can never be reported as the next event time.
        """
        slots, times = self._slots, self._times
        while times:
            t = times[0]
            slot = slots.get(t)
            if slot is None:
                # stale heap time: ``pending`` deleted the dead slot
                heappop(times)
                continue
            i, n = 0, len(slot)
            while i < n:
                e = slot[i]
                if type(e) is tuple or not e.cancelled:
                    break
                i += 1
            if i == n:
                del slots[t]
                heappop(times)
                continue
            if i:
                del slot[:i]  # keep repeated peeks O(1) amortized
            return t
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or None if the queue is empty.

        Mid-batch (from inside a callback running under :meth:`run`) the
        not-yet-dispatched remainder of the current slot is part of the
        queue, exactly as same-timestamp events still in the reference
        engine's heap would be.
        """
        lst = self._cur_list
        if lst is not None:
            i, n = self._cur_idx, len(lst)
            while i < n:
                e = lst[i]
                if type(e) is tuple or not e.cancelled:
                    return self._cur_time
                i += 1
        return self._peek_future()

    @property
    def pending(self) -> int:
        """Live (not dispatched, not cancelled) entry count; prunes garbage.

        Same contract as :attr:`Engine.pending`: quiescence checks rely on
        a zero return meaning the queue holds nothing at all, so cancelled
        events are removed rather than merely skipped.
        """
        slots = self._slots
        n = 0
        dead: list[float] = []
        for t, slot in slots.items():
            live = [e for e in slot if type(e) is tuple or not e.cancelled]
            if len(live) != len(slot):
                if live:
                    slots[t] = live
                else:
                    dead.append(t)
            n += len(live)
        for t in dead:
            del slots[t]
            # the heap time goes stale; _peek_future prunes it lazily
        lst = self._cur_list
        if lst is not None:
            for j in range(self._cur_idx, len(lst)):
                e = lst[j]
                if type(e) is tuple or not e.cancelled:
                    n += 1
        return n

    # -- execution -----------------------------------------------------------

    def _drain(self, until: float | None, max_events: int | None) -> int:
        """Dispatch events in (time, seq) order until the queue empties.

        The :meth:`Engine.run` contract, on either drain: the ``until``
        cutoff leaves the first later event queued, the ``max_events``
        guard raises *after* the offending dispatch, and the idle clock
        advances to ``until`` when the queue drains.  An installed
        tie-break policy selects :meth:`_drain_policy`; the rest of this
        method is the FIFO drain.

        A step entry followed by another live entry in its slot gets the
        slot time as its horizon (with non-negative op charges a processor
        then runs exactly one op); the slot's last live step entry gets
        the next live slot time, or ``inf``.  ``_dispatched`` accumulates
        in a local and flushes in the ``finally`` — nothing reads it
        mid-run (checkpointing requires quiescence).
        """
        if self.policy is not None:
            return self._drain_policy(until, max_events)
        dispatched = 0
        limit = (1 << 62) if max_events is None else max_events
        slots, times = self._slots, self._times
        slots_get = slots.get
        peek_future = self._peek_future
        exhausted = False
        try:
            while True:
                # inline _peek_future + slot claim: find the earliest slot
                # holding a live entry, pruning dead slots and stale heap
                # times on the way (one dict lookup, no method call)
                while times:
                    t = times[0]
                    lst = slots.get(t)
                    if lst is None:
                        heappop(times)
                        continue
                    i = 0
                    n = len(lst)
                    while i < n:
                        e0 = lst[i]
                        if type(e0) is tuple or not e0.cancelled:
                            break
                        i += 1
                    if i == n:
                        del slots[t]
                        heappop(times)
                        continue
                    break
                else:
                    exhausted = True
                    break
                if until is not None and t > until:
                    break
                # take the whole same-timestamp batch in one pop (leading
                # cancelled entries are skipped via ``i``, as the reference
                # heap pops them undispatched); entries scheduled at t
                # *during* the batch open a fresh slot and join the next
                # iteration (same (time, seq) order as the reference)
                del slots[t]
                heappop(times)
                self._cur_time = t
                self._cur_list = lst
                self.now = t
                try:
                    while i < n:
                        e = lst[i]
                        i += 1
                        self._cur_idx = i
                        if type(e) is tuple:
                            # the horizon is the slot time while another
                            # live entry follows in it, else the next live
                            # slot time (inf on an empty queue)
                            j = i
                            while j < n:
                                e2 = lst[j]
                                if type(e2) is tuple or not e2.cancelled:
                                    horizon = t
                                    break
                                j += 1
                            else:
                                horizon = peek_future()
                                if horizon is None:
                                    horizon = inf
                            r = e[0].step(horizon, e[1])
                            if r is not None:
                                # re-yield: same tuple, one new seq
                                self._seq += 1
                                slot2 = slots_get(r)
                                if slot2 is None:
                                    slots[r] = [e]
                                    heappush(times, r)
                                else:
                                    slot2.append(e)
                        elif e.cancelled:
                            continue
                        else:
                            e.fn()
                        dispatched += 1
                        if dispatched >= limit:
                            raise SimulationError(
                                f"exceeded max_events={max_events}; "
                                "likely a livelocked model"
                            )
                finally:
                    self._cur_list = None
                    rem = lst[i:]
                    if rem:
                        # an exception unwound mid-batch: restore the
                        # undispatched remainder so the queue state matches
                        # the reference engine's (events stay in the heap)
                        existing = slots.get(t)
                        if existing is None:
                            slots[t] = rem
                            heappush(times, t)
                        else:
                            # entries scheduled at t during the batch carry
                            # higher seqs, so remainder-first keeps order
                            slots[t] = rem + existing
            if until is not None and self.now < until and exhausted:
                self.now = until
        finally:
            self._dispatched += dispatched
        return dispatched

    def _drain_policy(self, until: float | None, max_events: int | None) -> int:
        """The drain under a tie-break policy: one ``policy.pick`` per dispatch.

        The earliest slot stays in the table while it drains, so its live
        remainder — plus anything a callback schedules at the same
        timestamp — is the frontier the next pick chooses among, in seq
        order.  A chosen step entry is dispatched as on the FIFO drain:
        while losers remain the horizon is the slot's own time, which pins
        a processor to one op before it re-yields into the frontier.
        """
        policy = self.policy
        slots = self._slots
        peek_future = self._peek_future
        limit = (1 << 62) if max_events is None else max_events
        dispatched = 0
        exhausted = False
        try:
            while True:
                t = peek_future()
                if t is None:
                    exhausted = True
                    break
                if until is not None and t > until:
                    break
                slot = slots[t]
                # cancelled entries never enter the frontier; compacting in
                # place keeps the slot the list ``schedule`` appends to
                slot[:] = [e for e in slot
                           if type(e) is tuple or not e.cancelled]
                e = slot.pop(policy.pick(slot))
                self.now = t
                if type(e) is tuple:
                    # losers (all live: just compacted) pin the horizon
                    horizon = t if slot else peek_future()
                    r = e[0].step(inf if horizon is None else horizon, e[1])
                    if r is not None:
                        # re-yield: same tuple, one new seq
                        self._seq += 1
                        later = slots.get(r)
                        if later is None:
                            slots[r] = [e]
                            heappush(self._times, r)
                        else:
                            later.append(e)
                else:
                    e.fn()
                dispatched += 1
                if dispatched >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a livelocked model"
                    )
            if until is not None and self.now < until and exhausted:
                self.now = until
        finally:
            self._dispatched += dispatched
        return dispatched
