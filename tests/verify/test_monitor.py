"""Tests for the dynamic invariant monitor: each invariant, provoked directly."""

import pytest

from repro.protocols.directory import DirState
from repro.tempest.tags import AccessTag
from repro.verify import (
    CoherenceViolation,
    InvariantMonitor,
    InvariantProfile,
    profile_for,
)

from tests.helpers import run_one_phase, small_machine
from tests.oracle import Call


class TestProfiles:
    def test_invalidate_family_is_strict(self):
        for name in ("stache", "predictive"):
            prof = profile_for(name)
            assert not prof.home_writer_may_coexist
            assert DirState.SHARED in prof.shared_states

    def test_write_update_allows_home_writer(self):
        prof = profile_for("write-update")
        assert prof.home_writer_may_coexist
        assert "UPDATE_SHARED" in prof.shared_states

    def test_unknown_protocol_gets_strict_default(self):
        assert profile_for("anything-else") == InvariantProfile()


class TestCleanMachines:
    def test_fresh_machine_passes(self):
        m, b = small_machine()
        InvariantMonitor().check(m)

    def test_after_a_real_phase_passes(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("r", b)], 2: [("r", b + 1), ("w", b + 1)]})
        monitor = InvariantMonitor()
        monitor.check(m, phase="after")
        assert monitor.checks_run == 1

    def test_phase_hook_fires_each_phase(self):
        m, b = small_machine()
        monitor = InvariantMonitor().attach(m)
        run_one_phase(m, {1: [("r", b)]})
        run_one_phase(m, {1: [("r", b)]})
        assert monitor.checks_run == 2


class TestSingleWriter:
    def test_two_writable_copies(self):
        m, b = small_machine(n_nodes=3)
        m.nodes[1].tags.set(b, AccessTag.READ_WRITE)  # home (0) already RW
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor().check(m)
        assert ei.value.invariant == "single-writer"

    def test_writer_coexisting_with_reader(self):
        m, b = small_machine(n_nodes=3)
        m.nodes[1].tags.set(b, AccessTag.READ_ONLY)  # home still READ_WRITE
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor().check(m)
        assert ei.value.invariant == "single-writer"

    def test_home_writer_plus_reader_legal_under_write_update(self):
        m, b = small_machine("write-update", n_nodes=3)
        run_one_phase(m, {0: [("w", b)], 1: [("r", b)]})
        # consumer registered: home holds RW, node 1 holds RO — the
        # write-update profile blesses exactly this pattern
        assert m.nodes[1].tags.get(b) is AccessTag.READ_ONLY
        assert m.nodes[0].tags.get(b) is AccessTag.READ_WRITE
        InvariantMonitor().check(m)


class TestDirectoryAgreement:
    def test_recorded_sharer_without_copy(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("r", b)]})  # directory: SHARED, sharers={1}
        m.nodes[1].tags.invalidate(b)      # cache disagrees
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor().check(m)
        assert ei.value.invariant == "directory-agreement"

    def test_idle_entry_with_remote_copy(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("r", b)]})
        entry = m.protocol.directory.entry(b)
        entry.state = DirState.IDLE  # directory forgets the sharer
        entry.sharers.clear()
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor().check(m)
        assert ei.value.invariant == "directory-agreement"


class TestLostInvalidation:
    def test_stale_sharer_not_in_directory(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("r", b)], 2: [("r", b)]})
        entry = m.protocol.directory.entry(b)
        entry.sharers.discard(2)  # as if node 2's INV was sent and "acked"
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor().check(m)
        assert ei.value.invariant == "lost-invalidation"

    def test_untracked_block_with_remote_copy(self):
        m, b = small_machine(n_nodes=3)
        m.nodes[0].tags.invalidate(b)  # quiet the single-writer check
        m.nodes[2].tags.set(b, AccessTag.READ_ONLY)
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor().check(m)
        assert ei.value.invariant == "lost-invalidation"

    def test_exclusive_entry_with_leftover_reader(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("w", b)]})  # node 1 owns the block
        m.nodes[2].tags.set(b, AccessTag.READ_ONLY)
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor().check(m)
        assert ei.value.invariant in ("lost-invalidation", "single-writer")


class TestQuiescence:
    def test_queued_event_at_barrier(self):
        m, b = small_machine()
        m.engine.push_step(m.engine.now + 100.0, Call(lambda: None))
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor().check(m)
        assert ei.value.invariant == "quiescence"

    def test_busy_directory_entry_at_barrier(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("r", b)]})
        m.protocol.directory.entry(b).state = DirState.BUSY_INV
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor().check(m)
        assert ei.value.invariant == "quiescence"


class TestViolationReports:
    def test_report_carries_replay_context(self):
        v = CoherenceViolation(
            "single-writer", "block 7: two writers",
            protocol="stache", phase="d0-it1", seed=12, schedule=[1, 0, 2],
        )
        text = v.report()
        assert "single-writer" in text
        assert "repro verify --replay 12" in text
        assert "[1, 0, 2]" in text
        assert "stache" in text

    def test_fifo_schedule_rendered_explicitly(self):
        v = CoherenceViolation("quiescence", "x", seed=3)
        assert "(FIFO order)" in v.report()

    def test_monitor_stamps_seed_and_schedule(self):
        from repro.verify import SeededRandomPolicy

        m, b = small_machine(n_nodes=3)
        policy = SeededRandomPolicy(5)
        policy.choices.extend([1, 1])
        m.nodes[1].tags.set(b, AccessTag.READ_WRITE)
        with pytest.raises(CoherenceViolation) as ei:
            InvariantMonitor(seed=5, policy=policy).check(m)
        assert ei.value.seed == 5
        assert ei.value.schedule == [1, 1]


class TestDeadNodeReferences:
    """The crash-recovery self-check: after a node dies, no surviving
    directory entry or predictive schedule may still reference it."""

    def test_clean_machine_has_no_refs(self):
        from repro.verify.monitor import dead_node_references

        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("r", b)]})
        # nothing is down, so the default query is empty...
        assert dead_node_references(m) == []
        # ...and an unreferenced node has no refs either
        assert dead_node_references(m, {2}) == []

    def test_sharer_reference_is_found(self):
        from repro.verify.monitor import dead_node_references

        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("r", b)]})
        refs = dead_node_references(m, {1})
        assert refs, "node 1 shares the block; its death must be visible"
        assert any("sharer" in r for r in refs)

    def test_owner_reference_is_found(self):
        from repro.verify.monitor import dead_node_references

        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {2: [("w", b)]})
        refs = dead_node_references(m, {2})
        assert any("owner" in r for r in refs)

    def test_schedule_reference_is_found(self):
        from repro.verify.monitor import dead_node_references

        m, b = small_machine(protocol="predictive", n_nodes=3)
        m.begin_group("d0")
        run_one_phase(m, {1: [("r", b)]})
        m.end_group()
        assert any("schedule" in r for r in dead_node_references(m, {1}))
