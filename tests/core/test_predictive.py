"""Tests of the predictive protocol: schedule building, pre-send, incrementality."""

import pytest

from repro.core import EntryKind
from repro.core.schedule import CommSchedule
from repro.sim import TimeCategory
from repro.tempest.machine import PhaseTrace
from repro.tempest.tags import AccessTag

from tests.helpers import idle_ops, run_one_phase, small_machine


def run_group(m, directive, busy, name="phase"):
    m.begin_group(directive)
    run_one_phase(m, busy, name)
    m.end_group()


class TestScheduleBuilding:
    def test_faults_recorded_into_directive_schedule(self):
        m, b = small_machine("predictive", n_nodes=3)
        run_group(m, 7, {1: [("r", b)], 2: [("r", b + 1)]})
        sched = m.protocol.schedules.fetch(7)
        assert sched.entries[b].readers == {1}
        assert sched.entries[b + 1].readers == {2}

    def test_no_recording_outside_group(self):
        m, b = small_machine("predictive", n_nodes=2)
        run_one_phase(m, {1: [("r", b)]})
        assert all(len(s) == 0 for s in m.protocol.schedules.values())

    def test_hits_not_recorded(self):
        m, b = small_machine("predictive", n_nodes=2)
        run_group(m, 1, {0: [("r", b), ("w", b)]})  # home accesses: local hits
        assert len(m.protocol.schedules.fetch(1)) == 0

    def test_write_fault_recorded_as_writer(self):
        m, b = small_machine("predictive", n_nodes=2)
        run_group(m, 1, {1: [("w", b)]})
        e = m.protocol.schedules.fetch(1).entries[b]
        assert e.kind is EntryKind.WRITE
        assert e.writer == 1


class TestPreSend:
    def test_second_iteration_hits_locally(self):
        m, b = small_machine("predictive", n_nodes=3)
        for _ in range(2):
            run_group(m, 1, {1: [("r", b)], 2: [("r", b)]})
        # iteration 0: two read misses; iteration 1: all pre-sent
        assert m.stats.misses == 2
        assert m.stats.local_hits == 2

    def test_presend_skips_still_valid_copies(self):
        """Nothing invalidated the consumers' copies: pre-send sends nothing."""
        m, b = small_machine("predictive", n_nodes=3)
        run_group(m, 1, {1: [("r", b)], 2: [("r", b + 1)]})
        run_group(m, 1, {1: [("r", b)], 2: [("r", b + 1)]})
        assert m.protocol.presend_blocks == 0

    def test_presend_counts_blocks(self):
        m, b = small_machine("predictive", n_nodes=3)
        run_group(m, 1, {1: [("r", b)], 2: [("r", b + 1)]})
        # producer writes invalidate the consumers' copies
        run_group(m, 2, {0: [("w", b), ("w", b + 1)]})
        run_group(m, 1, {1: [("r", b)], 2: [("r", b + 1)]})
        assert m.protocol.presend_blocks == 2
        assert m.nodes[0].stats.presend_blocks_sent == 2
        assert (
            m.nodes[1].stats.presend_blocks_received
            + m.nodes[2].stats.presend_blocks_received
            == 2
        )

    def test_predictive_time_charged(self):
        m, b = small_machine("predictive", n_nodes=2)
        run_group(m, 1, {1: [("r", b)]})
        assert m.nodes[0].stats.cycles[TimeCategory.PREDICTIVE] == 0
        run_group(m, 1, {1: [("r", b)]})
        assert m.nodes[0].stats.cycles[TimeCategory.PREDICTIVE] > 0

    def test_producer_consumer_cycle_steady_state(self):
        """Water's pattern: producer writes its own data, consumers read it.
        After the first iteration everything is pre-sent — zero misses."""
        m, b = small_machine("predictive", n_nodes=4)
        def one_iter():
            run_group(m, 1, {1: [("r", b)], 2: [("r", b)], 3: [("r", b)]}, "force")
            run_group(m, 2, {0: [("w", b)]}, "update")
        one_iter()
        miss0 = m.stats.misses
        for _ in range(3):
            one_iter()
        assert m.stats.misses == miss0  # no new misses after iteration 0
        m.finish().check_conservation()

    def test_write_presend_grants_remote_writer(self):
        """Migratory: node 1 writes node-0-homed data every iteration."""
        m, b = small_machine("predictive", n_nodes=2)
        run_group(m, 1, {1: [("w", b)]})
        assert m.nodes[1].tags.get(b) is AccessTag.READ_WRITE
        # returns home between phases? no: node 1 keeps it; presend no-ops
        run_group(m, 1, {1: [("w", b)]})
        assert m.stats.misses == 1

    def test_conflict_blocks_not_presend(self):
        m, b = small_machine("predictive", n_nodes=3)
        # same block read by 1 and written by 2 in one phase: conflict
        run_group(m, 1, {1: [("r", b)], 2: [("w", b)]})
        sched = m.protocol.schedules.fetch(1)
        assert sched.entries[b].kind is EntryKind.CONFLICT
        before = m.protocol.presend_blocks
        run_group(m, 1, {1: [("r", b)], 2: [("w", b)]})
        assert m.protocol.presend_blocks == before  # no action for conflicts


class TestIncremental:
    def test_new_faults_extend_schedule(self):
        """Adaptive growth: a new reader appears in iteration 2 and is
        pre-sent from iteration 3 on."""
        m, b = small_machine("predictive", n_nodes=3)
        run_group(m, 1, {1: [("r", b)]})
        run_group(m, 1, {1: [("r", b)], 2: [("r", b)]})  # node 2 is new: faults
        assert m.protocol.schedules.fetch(1).entries[b].readers == {1, 2}
        misses = m.stats.misses
        run_group(m, 1, {1: [("r", b)], 2: [("r", b)]})
        assert m.stats.misses == misses  # both pre-sent now

    def test_deletions_cause_useless_presends(self):
        """A reader that stops accessing keeps receiving the block (§3.3)."""
        m, b = small_machine("predictive", n_nodes=3)
        run_group(m, 1, {1: [("r", b)], 2: [("r", b)]})
        run_group(m, 2, {0: [("w", b)]})  # invalidate copies so presend resends
        run_group(m, 1, {1: [("r", b)]})  # node 2 dropped out
        assert m.nodes[2].stats.presend_useless_blocks == 1

    def test_flush_rebuilds_schedule(self):
        m, b = small_machine("predictive", n_nodes=2)
        run_group(m, 1, {1: [("r", b)]})
        m.protocol.flush_schedule(1)
        assert len(m.protocol.schedules.fetch(1)) == 0
        run_group(m, 1, {1: [("r", b)]})
        # after flush the (still cached) copy hits; schedule stays empty
        assert len(m.protocol.schedules.fetch(1)) == 0


class TestCoalescedBulk:
    def test_adjacent_blocks_travel_in_one_bulk_message(self):
        m, b = small_machine("predictive", n_nodes=2)
        blocks = [b, b + 1, b + 2, b + 3]
        run_group(m, 1, {1: [("r", blk) for blk in blocks]})
        run_group(m, 2, {0: [("w", blk) for blk in blocks]})  # take copies back
        before = m.protocol.presend_messages
        run_group(m, 1, {1: [("r", blk) for blk in blocks]})
        assert m.protocol.presend_messages - before == 1  # one bulk message
        assert m.nodes[1].stats.presend_blocks_received == 4
