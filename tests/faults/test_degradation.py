"""Graceful degradation of the predictive protocol under schedule faults.

Injected staleness/corruption and chronically-wrong predictions must only
ever cost performance: the predictive protocol falls back to plain Stache
behaviour (flush + cooldown) while coherence is preserved throughout.
"""

from repro.core.schedule import EntryKind
from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent
from repro.tempest.machine import PhaseTrace
from repro.verify.monitor import InvariantMonitor

from tests.helpers import small_machine


def _group(m, directive, ops_by_node):
    ops = [[] for _ in range(len(m.nodes))]
    for node, node_ops in ops_by_node.items():
        ops[node] = node_ops
    m.begin_group(directive)
    m.run_phase(PhaseTrace(f"d{directive}", ops))
    m.end_group()


def _reader_writer_rounds(m, first, rounds):
    """d1: node1 reads; d2: node2 writes (invalidating node1's copy)."""
    for _ in range(rounds):
        _group(m, 1, {1: [("r", first)]})
        _group(m, 2, {2: [("w", first)]})


class TestInjectedScheduleFaults:
    def test_stale_instance_freezes_learning(self):
        clean, first = small_machine("predictive", n_nodes=3)
        _reader_writer_rounds(clean, first, 3)
        assert clean.protocol.presend_blocks > 0  # baseline really pre-sends

        stale, first = small_machine("predictive", n_nodes=3)
        # freeze d1's very first instance: the read fault it would have
        # learned from is never recorded
        FaultPlan(events=(
            FaultEvent("stale", ("sched", 1, 0)),
        )).install(stale)
        monitor = InvariantMonitor().attach(stale)
        _reader_writer_rounds(stale, first, 3)
        assert stale.protocol.presend_blocks < clean.protocol.presend_blocks
        assert monitor.checks_run > 0
        # learning resumes the next instance, so prediction still recovers
        assert stale.protocol.schedules[1].entries

    def test_corrupt_schedule_mispredicts_but_stays_coherent(self):
        m, first = small_machine("predictive", n_nodes=3)
        FaultPlan(events=(
            FaultEvent("corrupt", ("sched", 1, 1)),
        )).install(m)
        monitor = InvariantMonitor().attach(m)
        _reader_writer_rounds(m, first, 4)
        assert monitor.checks_run > 0  # every barrier re-verified
        # the flip persists (node1's reads now hit on the over-provisioned
        # writable copy, and hits are never recorded) — but the copies are
        # still consumed, so the misprediction costs nothing it would need
        # degradation to recover from
        entry = m.protocol.schedules[1].entries[first]
        assert entry.kind is EntryKind.WRITE and entry.writer == 1
        assert m.stats.schedules_degraded == 0

    def test_corrupt_flips_entry_directions(self):
        m, first = small_machine("predictive", n_nodes=3)
        sched = m.protocol.schedules.fetch(1)
        sched.begin_instance()
        sched.record(first, 1, "r")
        sched.begin_instance()
        sched.record(first + 1, 2, "w")
        m.protocol._corrupt_schedule(sched)
        read_turned = sched.entries[first]
        assert read_turned.kind is EntryKind.WRITE and read_turned.writer == 1
        write_turned = sched.entries[first + 1]
        assert write_turned.kind is EntryKind.READ and 2 in write_turned.readers


class TestChronicMisprediction:
    def _dead_consumer(self, m, first, rounds):
        """node1 reads once, then departs; node2 keeps invalidating the
        copies d1 pre-sends to the reader that never comes back."""
        _group(m, 1, {1: [("r", first)]})
        _group(m, 2, {2: [("w", first)]})
        for _ in range(rounds):
            _group(m, 1, {})
            _group(m, 2, {2: [("w", first)]})

    def test_dead_consumer_degrades_once_and_stabilizes(self):
        m, first = small_machine("predictive", n_nodes=3)
        monitor = InvariantMonitor().attach(m)
        self._dead_consumer(m, first, 12)
        assert m.stats.schedules_degraded == 1
        sched = m.protocol.schedules[1]
        assert sched.wasted_streak == 0  # degrade resets the streak
        assert not sched.entries  # flushed, and nothing wrong relearned
        assert monitor.checks_run > 0

    def test_patience_bounds_wasted_presends(self):
        m, first = small_machine("predictive", n_nodes=3)
        self._dead_consumer(m, first, 12)
        after_degrade = m.protocol.presend_blocks
        # degradation stops the waste: more dead rounds add zero transfers
        for _ in range(10):
            _group(m, 1, {})
            _group(m, 2, {2: [("w", first)]})
        assert m.protocol.presend_blocks == after_degrade

    def test_degraded_schedule_relearns_after_cooldown(self):
        m, first = small_machine("predictive", n_nodes=3)
        self._dead_consumer(m, first, 12)
        assert m.stats.schedules_degraded == 1
        blocks_at_degrade = m.protocol.presend_blocks
        # the consumer returns: d1 relearns the read and pre-sends again
        _reader_writer_rounds(m, first, 4)
        assert m.protocol.presend_blocks > blocks_at_degrade
        assert m.stats.schedules_degraded == 1  # no further degradation
        sched = m.protocol.schedules[1]
        assert sched.entries[first].kind is EntryKind.READ
