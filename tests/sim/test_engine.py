"""Tests for the discrete-event engine: ordering, determinism, guards."""

from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import CalendarEngine
from repro.util import SimulationError
from repro.verify.interleave import FifoPolicy


class TestOrdering:
    def test_events_fire_in_time_order(self):
        eng = CalendarEngine()
        seen = []
        eng.schedule(5.0, lambda: seen.append(5))
        eng.schedule(1.0, lambda: seen.append(1))
        eng.schedule(3.0, lambda: seen.append(3))
        eng.run()
        assert seen == [1, 3, 5]

    def test_ties_fire_fifo(self):
        eng = CalendarEngine()
        seen = []
        for i in range(10):
            eng.schedule(7.0, lambda i=i: seen.append(i))
        eng.run()
        assert seen == list(range(10))

    def test_now_tracks_dispatch_time(self):
        eng = CalendarEngine()
        times = []
        eng.schedule(2.0, lambda: times.append(eng.now))
        eng.schedule(9.0, lambda: times.append(eng.now))
        eng.run()
        assert times == [2.0, 9.0]

    def test_callbacks_can_schedule(self):
        eng = CalendarEngine()
        seen = []
        def first():
            seen.append("first")
            eng.schedule_after(1.0, lambda: seen.append("second"))
        eng.schedule(1.0, first)
        eng.run()
        assert seen == ["first", "second"]
        assert eng.now == 2.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_dispatch_order_is_sorted(self, times):
        eng = CalendarEngine()
        seen = []
        for t in times:
            eng.schedule(t, lambda t=t: seen.append(t))
        eng.run()
        assert seen == sorted(times)


class TestGuards:
    def test_cannot_schedule_past(self):
        eng = CalendarEngine()
        eng.schedule(10.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        eng = CalendarEngine()
        with pytest.raises(SimulationError):
            eng.schedule_after(-1.0, lambda: None)

    def test_max_events_guard(self):
        eng = CalendarEngine()
        def loop():
            eng.schedule_after(1.0, loop)
        eng.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)

    def test_run_not_reentrant(self):
        eng = CalendarEngine()
        def reenter():
            eng.run()
        eng.schedule(0.0, reenter)
        with pytest.raises(SimulationError):
            eng.run()


class TestControls:
    def test_run_until_leaves_later_events(self):
        eng = CalendarEngine()
        seen = []
        eng.schedule(1.0, lambda: seen.append(1))
        eng.schedule(10.0, lambda: seen.append(10))
        eng.run(until=5.0)
        assert seen == [1]
        assert eng.pending == 1
        eng.run()
        assert seen == [1, 10]

    def test_cancelled_event_skipped(self):
        eng = CalendarEngine()
        seen = []
        ev = eng.schedule(1.0, lambda: seen.append("cancelled"))
        eng.schedule(2.0, lambda: seen.append("kept"))
        ev.cancel()
        eng.run()
        assert seen == ["kept"]

    def test_peek_time(self):
        eng = CalendarEngine()
        assert eng.peek_time() is None
        ev = eng.schedule(4.0, lambda: None)
        eng.schedule(6.0, lambda: None)
        assert eng.peek_time() == 4.0
        ev.cancel()
        assert eng.peek_time() == 6.0

    def test_dispatch_counts(self):
        eng = CalendarEngine()
        for t in range(5):
            eng.schedule(float(t), lambda: None)
        n = eng.run()
        assert n == 5
        assert eng.total_dispatched == 5


class TestEdgeCases:
    def test_cancel_everything_before_run(self):
        eng = CalendarEngine()
        events = [eng.schedule(float(t), lambda: None) for t in range(5)]
        for ev in events:
            ev.cancel()
        assert eng.pending == 0
        assert eng.run() == 0
        assert eng.now == 0.0  # nothing dispatched, clock never moved

    def test_pending_prunes_cancelled_events(self):
        eng = CalendarEngine()
        events = [eng.schedule(float(t), lambda: None) for t in range(6)]
        for ev in events[::2]:
            ev.cancel()
        assert eng.pending == 3
        # pruned for real, not merely skipped: the queue no longer holds them
        assert eng.pending == 3
        assert all(not ev.cancelled
                   for slot in eng._slots.values() for ev in slot)

    def test_max_events_cutoff_mid_timestep(self):
        eng = CalendarEngine()
        seen = []
        for i in range(10):
            eng.schedule(1.0, lambda i=i: seen.append(i))
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=4)
        # the cutoff fired after exactly 4 same-timestamp dispatches,
        # FIFO order preserved, and the rest stayed queued
        assert seen == [0, 1, 2, 3]
        assert eng.pending == 6
        eng.run()
        assert seen == list(range(10))

    def test_peek_time_after_drain(self):
        eng = CalendarEngine()
        eng.schedule(3.0, lambda: None)
        eng.run()
        assert eng.peek_time() is None
        assert eng.pending == 0
        # the engine is still usable after draining
        eng.schedule_after(1.0, lambda: None)
        assert eng.peek_time() == 4.0

    def test_cancel_during_dispatch(self):
        eng = CalendarEngine()
        seen = []
        later = eng.schedule(2.0, lambda: seen.append("later"))
        eng.schedule(1.0, lambda: later.cancel())
        eng.run()
        assert seen == []


class Stepper:
    """A step-entry object with nothing but ``step(horizon, token)``: it
    records each call as ``(now, horizon, token)`` and returns its
    scripted re-yield times, then None."""

    def __init__(self, eng, returns=(), on_step=None):
        self.eng = eng
        self.returns = list(returns)
        self.on_step = on_step
        self.calls = []

    def step(self, horizon, token):
        self.calls.append((self.eng.now, horizon, token))
        if self.on_step is not None:
            self.on_step()
        return self.returns.pop(0) if self.returns else None


#: both drains dispatch a step entry the same way
DRAINS = pytest.mark.parametrize("policy", [None, FifoPolicy],
                                 ids=["fifo", "policy"])


def _engine(policy):
    return CalendarEngine(policy=None if policy is None else policy())


class TestStepEntries:
    """The step-entry protocol, on a queue that holds no processor."""

    @DRAINS
    def test_horizon_is_the_slot_time_while_a_live_entry_follows(self, policy):
        eng = _engine(policy)
        a, b, c = Stepper(eng), Stepper(eng), Stepper(eng)
        eng.push_step(5.0, a, 1)
        eng.schedule(5.0, lambda: None)  # a live Event follows a
        eng.push_step(6.0, b, 2)
        eng.push_step(6.0, c, 3)  # a step entry follows b
        assert eng.run() == 4
        assert a.calls == [(5.0, 5.0, 1)]
        assert b.calls == [(6.0, 6.0, 2)]
        assert c.calls == [(6.0, inf, 3)]  # last entry, empty queue

    @DRAINS
    def test_horizon_skips_cancelled_entries_and_dead_slots(self, policy):
        eng = _engine(policy)
        a = Stepper(eng)
        eng.push_step(5.0, a, 0)
        eng.schedule(5.0, lambda: None).cancel()  # a cancelled follower
        eng.schedule(7.0, lambda: None).cancel()  # an all-cancelled slot
        eng.schedule(9.0, lambda: None)
        assert eng.run() == 2
        assert a.calls == [(5.0, 9.0, 0)]

    @DRAINS
    def test_returned_time_requeues_the_same_tuple_with_one_seq(self, policy):
        eng = _engine(policy)
        a = Stepper(eng, returns=[7.0])
        entry = (a, 4)
        eng.push_steps(5.0, [entry])
        seq = eng._seq
        assert eng.run(until=5.0) == 1
        assert eng._seq == seq + 1
        assert len(eng._slots[7.0]) == 1 and eng._slots[7.0][0] is entry
        assert eng.pending == 1 and eng.peek_time() == 7.0
        assert eng.run() == 1
        assert a.calls == [(5.0, inf, 4), (7.0, inf, 4)]
        assert eng.pending == 0  # None drops the entry

    @DRAINS
    def test_requeue_takes_its_seq_after_the_step_returns(self, policy):
        eng = _engine(policy)
        seen = []

        def on_step():
            seen.append("step")
            if len(seen) == 1:
                eng.schedule(8.0, lambda: seen.append("during"))

        a = Stepper(eng, returns=[8.0], on_step=on_step)
        eng.schedule(8.0, lambda: seen.append("before"))
        eng.push_step(5.0, a, -1)
        eng.run()
        assert seen == ["step", "before", "during", "step"]
        assert a.calls == [(5.0, 8.0, -1), (8.0, inf, -1)]

    @DRAINS
    def test_every_call_counts_as_one_dispatch(self, policy):
        eng = _engine(policy)
        steppers = [Stepper(eng, returns=[3.0] * k) for k in range(4)]
        for k, s in enumerate(steppers):
            eng.push_step(2.0, s, k)
        eng.schedule(2.0, lambda: None)
        n = eng.run()
        calls = sum(len(s.calls) for s in steppers)
        assert calls == 1 + 2 + 3 + 4
        assert n == eng.total_dispatched == calls + 1
        assert all(token == k for k, s in enumerate(steppers)
                   for _, _, token in s.calls)
