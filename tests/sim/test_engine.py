"""Tests for the discrete-event engine: ordering, determinism, guards."""

from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import CalendarEngine
from repro.util import SimulationError
from repro.verify.interleave import FifoPolicy, SeededRandomPolicy
from repro.verify.oracle import run_workload
from repro.verify.workload import generate_workload

from tests.oracle import Call, HeapEngine, HeapExplorerEngine


def at(eng, t, fn):
    """Queue the callback ``fn`` at ``t``; returns the entry to cancel."""
    return eng.push_step(t, Call(fn))


class TestOrdering:
    def test_events_fire_in_time_order(self):
        eng = CalendarEngine()
        seen = []
        at(eng, 5.0, lambda: seen.append(5))
        at(eng, 1.0, lambda: seen.append(1))
        at(eng, 3.0, lambda: seen.append(3))
        eng.run()
        assert seen == [1, 3, 5]

    def test_ties_fire_fifo(self):
        eng = CalendarEngine()
        seen = []
        for i in range(10):
            at(eng, 7.0, lambda i=i: seen.append(i))
        eng.run()
        assert seen == list(range(10))

    def test_now_tracks_dispatch_time(self):
        eng = CalendarEngine()
        times = []
        at(eng, 2.0, lambda: times.append(eng.now))
        at(eng, 9.0, lambda: times.append(eng.now))
        eng.run()
        assert times == [2.0, 9.0]

    def test_callbacks_can_schedule(self):
        eng = CalendarEngine()
        seen = []
        def first():
            seen.append("first")
            at(eng, eng.now + 1.0, lambda: seen.append("second"))
        at(eng, 1.0, first)
        eng.run()
        assert seen == ["first", "second"]
        assert eng.now == 2.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_dispatch_order_is_sorted(self, times):
        eng = CalendarEngine()
        seen = []
        for t in times:
            at(eng, t, lambda t=t: seen.append(t))
        eng.run()
        assert seen == sorted(times)


class TestGuards:
    def test_cannot_schedule_past(self):
        eng = CalendarEngine()
        at(eng, 10.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            at(eng, 5.0, lambda: None)

    def test_negative_delay_rejected(self):
        eng = CalendarEngine()
        with pytest.raises(SimulationError):
            at(eng, eng.now - 1.0, lambda: None)

    def test_max_events_guard(self):
        eng = CalendarEngine()
        def loop():
            at(eng, eng.now + 1.0, loop)
        at(eng, 0.0, loop)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)

    def test_run_not_reentrant(self):
        eng = CalendarEngine()
        def reenter():
            eng.run()
        at(eng, 0.0, reenter)
        with pytest.raises(SimulationError):
            eng.run()


class TestControls:
    def test_run_until_leaves_later_events(self):
        eng = CalendarEngine()
        seen = []
        at(eng, 1.0, lambda: seen.append(1))
        at(eng, 10.0, lambda: seen.append(10))
        eng.run(until=5.0)
        assert seen == [1]
        assert eng.pending == 1
        eng.run()
        assert seen == [1, 10]

    def test_cancelled_event_skipped(self):
        eng = CalendarEngine()
        seen = []
        ev = at(eng, 1.0, lambda: seen.append("cancelled"))
        at(eng, 2.0, lambda: seen.append("kept"))
        eng.cancel(1.0, ev)
        eng.run()
        assert seen == ["kept"]

    def test_peek_time(self):
        eng = CalendarEngine()
        assert eng.peek_time() is None
        ev = at(eng, 4.0, lambda: None)
        at(eng, 6.0, lambda: None)
        assert eng.peek_time() == 4.0
        eng.cancel(4.0, ev)
        assert eng.peek_time() == 6.0

    def test_dispatch_counts(self):
        eng = CalendarEngine()
        for t in range(5):
            at(eng, float(t), lambda: None)
        n = eng.run()
        assert n == 5
        assert eng.total_dispatched == 5


class TestEdgeCases:
    def test_cancel_everything_before_run(self):
        eng = CalendarEngine()
        events = [at(eng, float(t), lambda: None) for t in range(5)]
        for t, ev in enumerate(events):
            eng.cancel(float(t), ev)
        assert eng.pending == 0
        assert eng.run() == 0
        assert eng.now == 0.0  # nothing dispatched, clock never moved

    def test_pending_prunes_cancelled_events(self):
        eng = CalendarEngine()
        events = [at(eng, float(t), lambda: None) for t in range(6)]
        for t in range(0, 6, 2):
            eng.cancel(float(t), events[t])
        assert eng.pending == 3
        # removed for real, not merely skipped: the queue no longer holds them
        assert eng.pending == 3
        assert not any(ev is gone for gone in events[::2]
                       for slot in eng._slots.values() for ev in slot)

    def test_max_events_cutoff_mid_timestep(self):
        eng = CalendarEngine()
        seen = []
        for i in range(10):
            at(eng, 1.0, lambda i=i: seen.append(i))
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
        at(eng, 3.0, lambda: None)
        eng.run()
        assert eng.peek_time() is None
        assert eng.pending == 0
        # the engine is still usable after draining
        at(eng, eng.now + 1.0, lambda: None)
        assert eng.peek_time() == 4.0

    def test_cancel_during_dispatch(self):
        eng = CalendarEngine()
        seen = []
        later = at(eng, 2.0, lambda: seen.append("later"))
        at(eng, 1.0, lambda: eng.cancel(2.0, later))
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


#: the drain dispatches a step entry the same way with or without a policy
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
        at(eng, 5.0, lambda: None)  # a callback entry follows a
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
        eng.cancel(5.0, at(eng, 5.0, lambda: None))  # a cancelled follower
        eng.cancel(7.0, at(eng, 7.0, lambda: None))  # an all-cancelled slot
        at(eng, 9.0, lambda: None)
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
                at(eng, 8.0, lambda: seen.append("during"))

        a = Stepper(eng, returns=[8.0], on_step=on_step)
        at(eng, 8.0, lambda: seen.append("before"))
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
        at(eng, 2.0, lambda: None)
        n = eng.run()
        calls = sum(len(s.calls) for s in steppers)
        assert calls == 1 + 2 + 3 + 4
        assert n == eng.total_dispatched == calls + 1
        assert all(token == k for k, s in enumerate(steppers)
                   for _, _, token in s.calls)


#: the calendar queue and the heap oracle, each with and
#: without a tie-break policy (FifoPolicy records every frontier it sees)
QUEUES = pytest.mark.parametrize("make", [
    pytest.param(CalendarEngine, id="calendar-fifo"),
    pytest.param(lambda: CalendarEngine(policy=FifoPolicy()),
                 id="calendar-policy"),
    pytest.param(HeapEngine, id="heap"),
    pytest.param(lambda: HeapExplorerEngine(FifoPolicy()), id="heap-explorer"),
])


def _frontiers(eng):
    policy = getattr(eng, "policy", None)
    return None if policy is None else policy.frontiers


class TestCancelRemoves:
    """``cancel`` removes the entry.  In each case the cancelling dispatch
    and the cancelled entry share a timestamp, the hardest place for it:
    the victim sits in the batch (or frontier) being drained."""

    @QUEUES
    def test_same_slot_victim_is_never_dispatched_or_counted(self, make):
        eng = make()
        seen, victim = [], []

        def killer():
            seen.append("killer")
            eng.cancel(5.0, victim[0])

        at(eng, 5.0, killer)
        victim.append(at(eng, 5.0, lambda: seen.append("victim")))
        at(eng, 5.0, lambda: seen.append("keep"))
        assert eng.run() == 2
        assert seen == ["killer", "keep"]
        assert eng.total_dispatched == 2
        # [killer, victim, keep], then [keep] alone: no second choice point
        assert _frontiers(eng) in (None, [3])

    @QUEUES
    def test_cancel_never_moves_now(self, make):
        eng = make()
        victims = []

        def killer():
            for t, entry in victims:
                eng.cancel(t, entry)

        at(eng, 5.0, killer)
        victims.append((5.0, at(eng, 5.0, lambda: None)))
        victims.append((9.0, at(eng, 9.0, lambda: None)))
        assert eng.run() == 1
        assert eng.now == 5.0
        assert eng.peek_time() is None and eng.pending == 0
        assert _frontiers(eng) in (None, [2])

    @QUEUES
    def test_cancel_emptying_the_batch_is_not_reported(self, make):
        eng = make()
        seen, victim = [], []

        def killer():
            eng.cancel(5.0, victim[0])
            seen.append((eng.peek_time(), eng.pending))

        at(eng, 5.0, killer)
        victim.append(at(eng, 5.0, lambda: seen.append("victim")))
        at(eng, 8.0, lambda: seen.append("tail"))
        assert eng.run() == 2
        assert seen == [(8.0, 1), "tail"]
        assert eng.now == 8.0

    @QUEUES
    def test_cancel_emptying_a_slot_queued_mid_batch(self, make):
        """The victim is queued at the current time by the first dispatch
        (a fresh slot without a policy, moved into the batch under one)
        and cancelled by the second, which empties its slot."""
        eng = make()
        seen, victim = [], []
        at(eng, 5.0, lambda: victim.append(at(eng, 5.0, lambda: seen.append("victim"))))

        def killer():
            eng.cancel(5.0, victim[0])
            seen.append((eng.peek_time(), eng.pending))

        at(eng, 5.0, killer)
        assert eng.run() == 2
        assert seen == [(None, 0)]
        assert eng.now == 5.0 and eng.total_dispatched == 2
        assert _frontiers(eng) in (None, [2, 2])

    @QUEUES
    def test_step_entry_cancels_its_slot_follower(self, make):
        eng = make()
        victim = []
        a = Stepper(eng, on_step=lambda: eng.cancel(5.0, victim[0]))
        eng.push_step(5.0, a, 0)
        victim.append(at(eng, 5.0, lambda: None))
        assert eng.run() == 1
        # the follower was queued when the horizon was read
        assert a.calls == [(5.0, 5.0, 0)]
        assert eng.pending == 0 and eng.now == 5.0

    @QUEUES
    def test_cancel_after_dispatch_is_a_no_op(self, make):
        eng = make()
        first = at(eng, 5.0, lambda: None)
        at(eng, 5.0, lambda: eng.cancel(5.0, first))
        keep = at(eng, 5.0, lambda: None)
        assert eng.run() == 3
        assert eng.pending == 0
        eng.cancel(5.0, keep)
        assert eng.total_dispatched == 3


class CountingPolicy(SeededRandomPolicy):
    """A seeded policy that refuses a frontier of fewer than two entries
    and counts the times it is asked."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def pick(self, width):
        if width < 2:
            raise AssertionError(f"asked to pick among {width} entry")
        self.calls += 1
        return super().pick(width)


class TestOneDrain:
    """Under a policy the batch loop asks ``pick`` at choice points and
    nowhere else, and still orders like the heap explorer."""

    @staticmethod
    def _program(eng, seen):
        def mark(name, *queue):
            def fn():
                seen.append(name)
                for dt, label in queue:
                    at(eng, eng.now + dt, mark(label))
            return fn

        at(eng, 1.0, mark("lone"))
        at(eng, 2.0, mark("a", (0.0, "a-now"), (0.0, "a-now2")))
        at(eng, 2.0, mark("b", (2.0, "b-later")))
        at(eng, 2.0, mark("c"))
        at(eng, 3.0, mark("d", (0.0, "d-now")))  # a singleton, then another
        at(eng, 4.0, mark("e"))

    def test_policy_is_consulted_only_at_choice_points(self):
        for seed in range(8):
            orders = []
            for make in (lambda p: CalendarEngine(policy=p),
                         HeapExplorerEngine):
                policy = CountingPolicy(seed)
                eng = make(policy)
                seen = []
                self._program(eng, seen)
                assert eng.run() == 10
                assert policy.calls == len(policy.choices) > 0
                orders.append((seen, policy.choices, policy.frontiers))
            assert orders[0] == orders[1]
            assert orders[0][2][0] == 3  # a, b and c tie at 2.0

        policy = CountingPolicy(5)
        run_workload(generate_workload(2), "stache", policy)
        assert policy.calls == len(policy.choices) > 0
