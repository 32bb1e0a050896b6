"""The discrete-event engine: its contract and its calendar queue.

A minimal, deterministic event-queue simulator with one kind of entry, the
*step entry*: a bare ``(obj, token)`` tuple, dispatched by calling
``obj.step(horizon, token)``.  Entries are ordered by time with FIFO
tie-breaking via a global sequence number, so runs are exactly
reproducible.  A step may queue further entries; :meth:`Engine.run` drains
the queue.

:class:`Engine` is the queue-agnostic half — clock, sequence and dispatch
counters, the ``run`` guard and its observability epilogue.  The one
production queue is :class:`CalendarEngine`; the binary-heap queue it is
differentially tested against lives under ``tests/`` (``tests/oracle.py``).

Step entries
------------

Every engine entry has the same shape: a processor continuation
``(proc, incarnation)``, a message delivery ``(network, msg)``, a handler
completion ``(protocol, msg)``, a crash-lifecycle event and a transport
retry timer.  No entry allocates an event object or a closure.
``horizon`` is the time of the next queued entry (``inf`` on an empty
queue); a returned time re-queues the same tuple with one new seq, ``None``
drops it.  The token is opaque here (the processor reads it as its
crash-restart incarnation, a delivery as its message), and a dispatch that
does nothing still counts.

The calendar queue
------------------

:class:`CalendarEngine` stores the queue as a *calendar*: a dict mapping
each distinct timestamp to its slot (a list of entries) plus a small heap
of the distinct slot times.  Because sequence numbers are allocated
globally in increasing order, every slot list is seq-ascending by
construction and never needs sorting; a whole same-timestamp batch
dispatches with one dict pop and one heap pop.

One drain
---------

Same-timestamp entries are semantically unordered, and a slot *is* that
frontier: every entry at the earliest time, in seq order.
:meth:`CalendarEngine._drain` dispatches each slot front to back as one
batch.  With a :class:`TieBreakPolicy` installed, the same loop first
moves entries queued at the slot time into the batch, then, only where two
or more remain, asks ``policy.pick`` which of them goes next — see
:mod:`repro.verify.interleave` for what a choice point and the concrete
policies are.

Cancellation removes
--------------------

:meth:`~CalendarEngine.push_step` returns the tuple it queued, and
:meth:`~CalendarEngine.cancel` removes that tuple, by identity, from its
slot or from the undispatched remainder of the batch being drained.  The
queue therefore holds no dead entry: a removed entry is never dispatched
or counted, never joins a policy's frontier and never moves ``now``, and
``peek_time`` and ``pending`` read the queue as it is.  A slot that a
cancel empties is deleted; its heap time goes stale and
:meth:`CalendarEngine._peek_future` pops it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from heapq import heappop, heappush
from math import inf

from repro.util.errors import SimulationError


class TieBreakPolicy:
    """Decides which of several same-timestamp entries dispatches first.

    The interface :class:`CalendarEngine` consults; the concrete policies
    live in :mod:`repro.verify.interleave`.
    """

    def __init__(self) -> None:
        #: index chosen at each choice point
        self.choices: list[int] = []
        #: frontier size at each recorded choice point
        self.frontiers: list[int] = []

    def choose(self, width: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def pick(self, width: int) -> int:
        """Record-keeping wrapper around :meth:`choose`: an index into a
        frontier of ``width >= 2`` entries (the engine never asks about
        one entry alone)."""
        i = self.choose(width)
        self.choices.append(i)
        self.frontiers.append(width)
        return i

    def describe(self) -> str:
        return type(self).__name__


class Engine(ABC):
    """A deterministic discrete-event simulator.

    Usage::

        eng = CalendarEngine()
        entry = eng.push_step(10.0, obj, token)  # obj.step(horizon, token)
        eng.run()

    ``eng.now`` is the timestamp of the entry currently being dispatched
    (0.0 before the first one).  Queueing into the past raises
    :class:`SimulationError` — that always indicates a modelling bug.

    The cancel contract every queue honours: :meth:`cancel` removes the
    entry, so it is never dispatched, never counted and never moves
    ``now``; :meth:`peek_time` never reports the time of a slot a cancel
    emptied and :attr:`pending` never counts an entry cancel removed
    (regression-tested in ``tests/sim/test_stale_peek.py``).
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

    # -- queueing ------------------------------------------------------------

    @abstractmethod
    def push_step(self, time: float, obj, token=-1) -> tuple:
        """Queue ``(obj, token)`` at absolute ``time``; returns the tuple.

        ``obj.step(horizon, token)`` runs when the entry dispatches and
        counts as one dispatch whatever it does.  The returned tuple is the
        handle :meth:`cancel` takes.
        """

    @abstractmethod
    def push_steps(self, time: float, entries: list) -> None:
        """Queue several ``(obj, token)`` tuples at ``time``, in order."""

    @abstractmethod
    def cancel(self, time: float, entry: tuple) -> None:
        """Remove ``entry`` (queued at ``time``) from the queue, by
        identity; a no-op once it has been dispatched."""

    # -- execution -----------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Dispatch entries in order until the queue empties.

        ``until`` stops the run once the next entry is strictly later than
        that time (the entry stays queued).  ``max_events`` guards against
        runaway models (``None`` falls back to ``default_max_events``).
        Returns the number of entries dispatched by this call.
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
        """Number of queued, not-yet-dispatched entries.

        Quiescence checks call this at every phase barrier, and the tests'
        checkpoint oracle requires a zero to mean the queue is truly empty.
        """

    @property
    def total_dispatched(self) -> int:
        return self._dispatched

    @abstractmethod
    def peek_time(self) -> float | None:
        """Timestamp of the next queued entry, or None if the queue is empty."""


class CalendarEngine(Engine):
    """The production :class:`Engine`: a calendar queue of step entries.

    Behavioural contract (checked by the Hypothesis differential suite):
    for any sequence of ``push_step``/``cancel``/``run`` calls, dispatch
    order, ``now``, ``pending``, ``peek_time``, ``total_dispatched`` and
    ``max_events`` errors are identical to the heap oracle's — under FIFO
    order with no ``policy``, and choice for choice under any policy.
    """

    def __init__(self, default_max_events: int | None = None,
                 policy: TieBreakPolicy | None = None) -> None:
        super().__init__(default_max_events)
        #: tie-break policy over same-timestamp entries, consulted only at
        #: choice points; None is FIFO
        self.policy = policy
        #: time -> non-empty, seq-ascending list of (obj, token)
        self._slots: dict[float, list] = {}
        #: heap of slot times; a time whose slot is gone is stale
        self._times: list[float] = []
        #: batch currently being dispatched at ``now`` (run() in progress),
        #: or None; peek_time/pending/cancel must see its not-yet-dispatched
        #: remainder
        self._cur_list: list | None = None
        self._cur_idx: int = 0

    # -- queueing ------------------------------------------------------------

    def push_step(self, time: float, obj, token=-1) -> tuple:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        entry = (obj, token)
        self._seq += 1
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = [entry]
            heappush(self._times, time)
        else:
            slot.append(entry)
        return entry

    def push_steps(self, time: float, entries: list) -> None:
        """Batch form of :meth:`push_step`: one slot, N entries, N seqs.

        How :meth:`~repro.tempest.machine.Machine._launch_phase` starts a
        phase: entries land in one calendar slot in node order, as N
        ``push_step`` calls at the phase start time would.
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

    def cancel(self, time: float, entry: tuple) -> None:
        slot = self._slots.get(time)
        if slot is not None:
            for k, e in enumerate(slot):
                if e is entry:
                    del slot[k]
                    if not slot:
                        del self._slots[time]
                    return
        lst = self._cur_list
        if lst is not None and time == self.now:
            for k in range(self._cur_idx, len(lst)):
                if lst[k] is entry:
                    del lst[k]
                    return

    # -- queue inspection ----------------------------------------------------

    def _peek_future(self) -> float | None:
        """Earliest slot time; pops the stale heap times in front of it."""
        slots, times = self._slots, self._times
        while times:
            t = times[0]
            if t in slots:
                return t
            heappop(times)
        return None

    def peek_time(self) -> float | None:
        """Mid-batch, the undispatched remainder of the current slot is part
        of the queue, as same-timestamp entries still in the heap would be."""
        lst = self._cur_list
        if lst is not None and self._cur_idx < len(lst):
            return self.now
        return self._peek_future()

    @property
    def pending(self) -> int:
        n = sum(map(len, self._slots.values()))
        lst = self._cur_list
        if lst is not None:
            n += len(lst) - self._cur_idx
        return n

    # -- execution -----------------------------------------------------------

    def _drain(self, until: float | None, max_events: int | None) -> int:
        """Dispatch entries in (time, seq) order until the queue empties.

        The :meth:`Engine.run` contract: the ``until`` cutoff leaves the
        first later entry queued, the ``max_events`` guard raises *after*
        the offending dispatch, and the idle clock advances to ``until``
        when the queue drains.

        Each slot is claimed as one batch.  An entry followed by another in
        its batch gets the slot time as its horizon (with non-negative op
        charges a processor then runs exactly one op); the batch's last
        entry gets the next slot time, or ``inf``.  The batch length is
        re-read after every dispatch, since a step may cancel an entry of
        its own batch.  Under a policy, entries queued at the slot time
        during the batch move to its end before each dispatch, so the
        remainder is the frontier in seq order; at a choice point (two or
        more left) the entry ``policy.pick`` names is taken out of the
        remainder and dispatched, and the rest keep their order.
        ``_dispatched`` accumulates in a local and flushes in the
        ``finally`` — nothing reads it mid-run.
        """
        policy = self.policy
        dispatched = 0
        limit = (1 << 62) if max_events is None else max_events
        slots, times = self._slots, self._times
        slots_get = slots.get
        exhausted = False
        try:
            while True:
                # inline _peek_future + slot claim: the earliest slot,
                # popping stale heap times on the way
                while times:
                    t = times[0]
                    lst = slots_get(t)
                    if lst is not None:
                        break
                    heappop(times)
                else:
                    exhausted = True
                    break
                if until is not None and t > until:
                    break
                # take the whole same-timestamp batch in one pop; without a
                # policy, entries queued at t *during* the batch open a
                # fresh slot and join the next iteration (same (time, seq)
                # order as the heap)
                del slots[t]
                heappop(times)
                self._cur_list = lst
                self.now = t
                i = 0
                try:
                    while i < len(lst):
                        if policy is None:
                            e = lst[i]
                            i += 1
                        else:
                            if t in slots:
                                # queued at t during the batch: nothing is
                                # earlier, so the heap's top is this t
                                lst += slots.pop(t)
                                heappop(times)
                            width = len(lst) - i
                            k = policy.pick(width) if width > 1 else 0
                            if k:
                                e = lst.pop(i + k)
                            else:
                                e = lst[i]
                                i += 1
                        self._cur_idx = i
                        if i < len(lst):
                            horizon = t
                        else:
                            # inline _peek_future: the next slot time
                            while times:
                                horizon = times[0]
                                if horizon in slots:
                                    break
                                heappop(times)
                            else:
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
                        dispatched += 1
                        if dispatched >= limit:
                            raise SimulationError(
                                f"exceeded max_events={max_events}; "
                                "likely a livelocked model"
                            )
                finally:
                    self._cur_list = None
                    if i < len(lst):
                        # an exception unwound mid-batch: restore the
                        # undispatched remainder so the queue state matches
                        # the reference engine's (entries stay in the heap)
                        rem = lst[i:]
                        existing = slots_get(t)
                        if existing is None:
                            slots[t] = rem
                            heappush(times, t)
                        else:
                            # entries queued at t during the batch carry
                            # higher seqs, so remainder-first keeps order
                            slots[t] = rem + existing
            if until is not None and self.now < until and exhausted:
                self.now = until
        finally:
            self._dispatched += dispatched
        return dispatched
