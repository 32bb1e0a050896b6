"""Regression: a cancelled entry must never leave a stale frontier.

``cancel`` removes the entry from the queue.  Were it only flagged (and
left queued), ``peek_time`` could report the time of a cancelled head
entry — a time nothing would ever dispatch at — and the replay
processors' conservative horizon rule would then yield at a phantom
horizon, splitting one dispatch into two and changing the engine's
sequence allocation.  ``pending`` would similarly count cancelled garbage,
so the quiescence check at phase barriers could see a "non-empty" queue
that would never drain.  The contract is stated on
:class:`repro.sim.engine.Engine`; the production queue and the heap oracle
are both pinned to it here.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import CalendarEngine

from tests.oracle import Call, HeapEngine

ENGINES = [pytest.param(HeapEngine, id="Engine"), CalendarEngine]


def _noop(engine, t):
    return engine.push_step(t, Call(lambda: None))


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_peek_skips_cancelled_head(engine_cls):
    engine = engine_cls()
    first = _noop(engine, 1.0)
    _noop(engine, 2.0)
    engine.cancel(1.0, first)
    assert engine.peek_time() == 2.0
    assert engine.pending == 1


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_peek_skips_fully_cancelled_timestamp(engine_cls):
    """An all-cancelled timestamp must be dropped, not merely skipped."""
    engine = engine_cls()
    doomed = [_noop(engine, 1.0) for _ in range(3)]
    _noop(engine, 4.0)
    for entry in doomed:
        engine.cancel(1.0, entry)
    assert engine.peek_time() == 4.0
    assert engine.pending == 1
    assert engine.run() == 1
    assert engine.now == 4.0


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_all_cancelled_queue_is_empty(engine_cls):
    engine = engine_cls()
    entries = [(float(t), _noop(engine, float(t))) for t in (1, 2, 3)]
    for t, entry in entries:
        engine.cancel(t, entry)
    assert engine.peek_time() is None
    assert engine.pending == 0
    assert engine.run() == 0


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_cancel_during_dispatch_updates_frontier(engine_cls):
    """A step cancelling a later entry must retire it from the peek
    frontier *within the same run* (the horizon read by the next dispatch)."""
    engine = engine_cls()
    seen = []
    victim = engine.push_step(5.0, Call(lambda: seen.append("victim")))

    def killer():
        engine.cancel(5.0, victim)
        seen.append(("peek-after-cancel", engine.peek_time()))

    engine.push_step(1.0, Call(killer))
    engine.push_step(7.0, Call(lambda: seen.append("tail")))
    assert engine.run() == 2
    assert seen == [("peek-after-cancel", 7.0), "tail"]
    assert engine.now == 7.0


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_pending_prunes_cancelled_garbage(engine_cls):
    """Quiescence checks rely on ``pending`` reporting queued entries only."""
    engine = engine_cls()
    keep = _noop(engine, 2.0)
    garbage = [_noop(engine, 1.0) for _ in range(10)]
    for entry in garbage:
        engine.cancel(1.0, entry)
    assert engine.pending == 1
    engine.cancel(2.0, keep)
    assert engine.pending == 0
    assert engine.peek_time() is None
