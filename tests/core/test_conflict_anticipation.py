"""Tests for the §3.4 extension: anticipating conflict blocks' first stable
state instead of skipping them during pre-send."""

import pytest

from repro.bench.ablations import predictive_knobs
from repro.core import EntryKind

from tests.helpers import run_one_phase, small_machine
from tests.oracle import check_directory


def conflicted_workload(m, b, iters=3):
    """Block b is read by node 1 AND written by node 2 in the same phase
    (a genuine conflict), every iteration."""
    for _ in range(iters):
        m.begin_group(1)
        run_one_phase(m, {1: [("r", b)], 2: [("w", b)]})
        m.end_group()


class TestPreConflictTracking:
    def test_pre_conflict_kind_recorded(self):
        m, b = small_machine("predictive", n_nodes=3)
        m.begin_group(1)
        run_one_phase(m, {1: [("r", b)], 2: [("w", b)]})
        m.end_group()
        entry = m.protocol.schedules.fetch(1).entries[b]
        assert entry.kind is EntryKind.CONFLICT
        assert entry.pre_conflict_kind in (EntryKind.READ, EntryKind.WRITE)

    def test_pre_conflict_is_first_observed_kind(self):
        from repro.core.schedule import CommSchedule

        s = CommSchedule(1)
        s.begin_instance()
        s.record(5, 1, "r")
        s.record(5, 2, "w")
        assert s.entries[5].pre_conflict_kind is EntryKind.READ
        s2 = CommSchedule(1)
        s2.begin_instance()
        s2.record(5, 2, "w")
        s2.record(5, 1, "r")
        assert s2.entries[5].pre_conflict_kind is EntryKind.WRITE


class TestAnticipation:
    def test_default_skips_conflicts(self):
        m, b = small_machine("predictive", n_nodes=3)
        conflicted_workload(m, b)
        assert m.protocol.presend_blocks == 0

    def test_anticipation_presends_stable_state(self):
        with predictive_knobs(anticipate=True):
            m, b = small_machine("predictive", n_nodes=3)
            conflicted_workload(m, b)
            assert m.protocol.presend_blocks > 0

    def test_anticipation_keeps_values_coherent(self):
        """Anticipation must never violate coherence invariants."""
        from repro.tempest.tags import AccessTag

        with predictive_knobs(anticipate=True):
            m, b = small_machine("predictive", n_nodes=3)
            conflicted_workload(m, b, iters=5)
            tags = [m.nodes[n].tags.get(b) for n in range(3)]
            writers = sum(t is AccessTag.READ_WRITE for t in tags)
            readers = sum(t is AccessTag.READ_ONLY for t in tags)
            assert writers <= 1
            if writers:
                assert readers == 0
            check_directory(m.protocol.directory)
            m.finish().check_conservation()

    def test_anticipation_can_help_read_mostly_conflicts(self):
        """A block overwhelmingly read but occasionally hit by a conflicting
        write benefits from anticipating READ."""
        def workload(m, b, anticipate_label):
            # iteration 0 creates the conflict; afterwards reads dominate
            m.begin_group(1)
            run_one_phase(m, {1: [("r", b)], 2: [("w", b)]})
            m.end_group()
            for _ in range(4):
                m.begin_group(2)
                run_one_phase(m, {0: [("w", b)]})
                m.end_group()
                m.begin_group(1)
                run_one_phase(m, {1: [("r", b)], 2: [("r", b)]})
                m.end_group()
            return m.stats.misses

        m1, b1 = small_machine("predictive", n_nodes=3)
        baseline = workload(m1, b1, "off")
        with predictive_knobs(anticipate=True):
            m2, b2 = small_machine("predictive", n_nodes=3)
            helped = workload(m2, b2, "on")
        assert helped <= baseline
