"""The calendar queue must dispatch in exactly the reference heap order.

Hypothesis generates scripted event programs — nested ``push_step`` calls,
same-time ties, cancellations (including of not-yet-dispatched same-slot
entries),
``until`` cutoffs, and ``max_events`` limits — and runs each program
through the reference heap engine (``tests/oracle.py``) and the production
:class:`~repro.sim.engine.CalendarEngine`.  The observed dispatch
sequence ``(event id, now)``, final clock, dispatch counters, pending
counts, and raised errors must all be identical — under FIFO order, and
under a tie-break policy (heap explorer vs. the calendar under a policy),
where the policy's recorded ``choices`` and ``frontiers`` must agree too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import CalendarEngine
from repro.util.errors import SimulationError
from repro.verify.interleave import ReplayPolicy, SeededRandomPolicy

from tests.oracle import Call, HeapEngine, HeapExplorerEngine

#: a small time grid maximizes same-timestamp collisions (tie-break stress)
TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 3.0])
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def programs(draw):
    """A program is a list of root entries; each entry may, when it fires,
    queue children (relative delays) and cancel earlier entries by id."""
    n_roots = draw(st.integers(min_value=1, max_value=6))
    events = []
    eid = 0
    for _ in range(n_roots):
        events.append({
            "time": draw(TIMES),
            "children": draw(st.lists(DELAYS, max_size=3)),
            "cancels": draw(st.lists(
                st.integers(min_value=0, max_value=14), max_size=2)),
        })
        eid += 1
    return events


class Script:
    """Executes one program against an engine, recording what happens."""

    def __init__(self, engine, program):
        self.engine = engine
        self.program = program
        self.log = []
        self.handles = {}
        self.next_id = len(program)

    def start(self):
        for i, spec in enumerate(self.program):
            self._push(i, spec["time"], spec)

    def _push(self, eid, t, spec):
        # the handle is (time, entry): what ``cancel`` takes
        self.handles[eid] = (t, self.engine.push_step(t, self._fire(eid, spec)))

    def _fire(self, eid, spec):
        def fn():
            self.log.append((eid, self.engine.now))
            for target in spec["cancels"]:
                handle = self.handles.get(target)
                if handle is not None:
                    self.engine.cancel(*handle)
            for delay in spec["children"]:
                cid = self.next_id
                self.next_id += 1
                child = {"children": [], "cancels": []}
                self._push(cid, self.engine.now + delay, child)
        return Call(fn)


def _execute(engine_cls, program, until=None, max_events=None, policy=None):
    engine = engine_cls() if policy is None else engine_cls(policy=policy)
    script = Script(engine, program)
    script.start()
    error = None
    try:
        engine.run(until=until, max_events=max_events)
    except SimulationError as exc:
        error = str(exc)
    out = {
        "log": list(script.log),
        "now": engine.now,
        "dispatched": engine.total_dispatched,
        "pending": engine.pending,
        "peek": engine.peek_time(),
        "error": error,
    }
    if policy is not None:
        # a cutoff leaves its undispatched remainder queued: draining it
        # afterwards must continue the very same interleaving
        engine.run()
        out["drained"] = (script.log, engine.now, engine.total_dispatched,
                          policy.choices, policy.frontiers)
    return out


@settings(max_examples=120, deadline=None)
@given(program=programs())
def test_dispatch_order_matches_reference(program):
    assert _execute(CalendarEngine, program) == _execute(HeapEngine, program)


@settings(max_examples=80, deadline=None)
@given(program=programs(), until=st.sampled_from([0.0, 1.0, 2.0, 2.5, 10.0]))
def test_until_cutoff_matches_reference(program, until):
    assert (_execute(CalendarEngine, program, until=until)
            == _execute(HeapEngine, program, until=until))


@settings(max_examples=80, deadline=None)
@given(program=programs(), limit=st.integers(min_value=1, max_value=6))
def test_max_events_cutoff_matches_reference(program, limit):
    ref = _execute(HeapEngine, program, max_events=limit)
    fast = _execute(CalendarEngine, program, max_events=limit)
    assert fast == ref
    if ref["error"] is not None:
        assert f"max_events={limit}" in ref["error"]


#: tie-break policies as (constructor, argument) so each engine gets its own
#: instance; replay indices deliberately overshoot small frontiers (clamped)
POLICIES = st.one_of(
    st.tuples(st.just(SeededRandomPolicy), st.integers(0, 2**16)),
    st.tuples(st.just(ReplayPolicy),
              st.lists(st.integers(min_value=0, max_value=5), max_size=12)),
)


@settings(max_examples=150, deadline=None)
@given(program=programs(), policy=POLICIES,
       until=st.sampled_from([None, None, 1.0, 2.0, 2.5]),
       limit=st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
def test_policy_drain_matches_heap_explorer(program, policy, until, limit):
    """The programs' zero delays schedule at ``now`` mid-frontier and their
    cancels hit events inside the frontier being drained; both must enter
    (or leave) the next pick's frontier exactly as on the heap."""
    cls, arg = policy
    ref = _execute(HeapExplorerEngine, program, until, limit, policy=cls(arg))
    fast = _execute(CalendarEngine, program, until, limit, policy=cls(arg))
    assert fast == ref
    if ref["error"] is not None:
        # raised *after* the offending dispatch; ``pending``/``peek`` above
        # and the drained log pin the remainder that stayed queued
        assert fast["dispatched"] == limit == len(fast["log"])
        assert (len(fast["drained"][0]) > limit) == (fast["pending"] > 0)


@pytest.mark.parametrize("engine_cls", [
    pytest.param(HeapEngine, id="Engine"), CalendarEngine])
def test_schedule_into_past_raises(engine_cls):
    engine = engine_cls()
    engine.push_step(5.0, Call(lambda: None))
    engine.run()
    with pytest.raises(SimulationError):
        engine.push_step(1.0, Call(lambda: None))


def test_calendar_engine_counts_like_reference_on_empty_run():
    for engine_cls in (HeapEngine, CalendarEngine):
        engine = engine_cls()
        assert engine.run() == 0
        assert engine.run(until=7.0) == 0
        assert engine.now == 7.0  # idle clock advances to the cutoff
