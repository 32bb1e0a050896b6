"""Tests for communication schedules: recording, conflicts, coalescing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import CommSchedule, EntryKind, coalesce_blocks


class TestRecording:
    def test_read_creates_read_entry(self):
        s = CommSchedule(1)
        e = s.record(10, requester=2, kind="r")
        assert e.kind is EntryKind.READ
        assert e.readers == {2}

    def test_write_creates_write_entry(self):
        s = CommSchedule(1)
        e = s.record(10, requester=3, kind="w")
        assert e.kind is EntryKind.WRITE
        assert e.writer == 3

    def test_readers_accumulate(self):
        s = CommSchedule(1)
        s.record(10, 1, "r")
        s.record(10, 2, "r")
        assert s.entries[10].readers == {1, 2}

    def test_writer_is_latest(self):
        s = CommSchedule(1)
        s.record(10, 1, "w")
        s.begin_instance()
        s.record(10, 2, "w")
        assert s.entries[10].writer == 2
        assert s.entries[10].kind is EntryKind.WRITE

    def test_incremental_growth_tracked(self):
        s = CommSchedule(1)
        s.begin_instance()
        s.record(1, 1, "r")
        s.record(2, 1, "r")
        s.begin_instance()
        s.record(3, 1, "r")  # adaptive growth: one new block
        s.record(1, 2, "r")  # existing block: not an addition
        s.begin_instance()
        assert s.additions_per_instance[-2:] == [2, 1]


class TestConflicts:
    def test_read_then_write_same_instance_conflicts(self):
        s = CommSchedule(1)
        s.begin_instance()
        s.record(10, 1, "r")
        s.record(10, 2, "w")
        assert s.entries[10].kind is EntryKind.CONFLICT

    def test_write_then_read_same_instance_conflicts(self):
        s = CommSchedule(1)
        s.begin_instance()
        s.record(10, 2, "w")
        s.record(10, 1, "r")
        assert s.entries[10].kind is EntryKind.CONFLICT

    def test_kind_change_across_instances_is_not_conflict(self):
        """Migratory data: written one iteration, read the next."""
        s = CommSchedule(1)
        s.begin_instance()
        s.record(10, 2, "w")
        s.begin_instance()
        s.record(10, 1, "r")
        assert s.entries[10].kind is EntryKind.READ

    def test_conflict_is_sticky(self):
        s = CommSchedule(1)
        s.begin_instance()
        s.record(10, 1, "r")
        s.record(10, 2, "w")
        s.begin_instance()
        s.record(10, 1, "r")
        assert s.entries[10].kind is EntryKind.CONFLICT
        assert s.conflict_blocks() == [10]

    def test_same_kind_same_instance_no_conflict(self):
        s = CommSchedule(1)
        s.begin_instance()
        s.record(10, 1, "r")
        s.record(10, 2, "r")
        assert s.entries[10].kind is EntryKind.READ


class TestFlushAndSlicing:
    def test_flush_empties(self):
        s = CommSchedule(1)
        s.record(1, 1, "r")
        s.flush()
        assert len(s) == 0

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=200),
                              st.integers(min_value=0, max_value=7),
                              st.sampled_from("rw"))),
           st.integers(min_value=1, max_value=6), st.data())
    def test_entries_by_home_partitions_in_block_order(self, accesses, n,
                                                        data):
        s = CommSchedule(1)
        for block, node, kind in accesses:
            s.record(block, node, kind)
        homes = {b: data.draw(st.integers(min_value=0, max_value=n - 1))
                 for b in sorted(s.entries)}
        slices = s.entries_by_home(homes.__getitem__, n)
        assert len(slices) == n
        for node in range(n):
            # the reference: filter the whole schedule, then sort
            ref = sorted((e for e in s if homes[e.block] == node),
                         key=lambda e: e.block)
            assert [id(e) for e in slices[node]] == [id(e) for e in ref]
        flat = sorted(e.block for mine in slices for e in mine)
        assert flat == sorted(s.entries)

    def test_iteration(self):
        s = CommSchedule(1)
        s.record(1, 1, "r")
        s.record(2, 2, "w")
        assert {e.block for e in s} == {1, 2}


class TestCoalescing:
    def test_empty(self):
        assert coalesce_blocks([]) == []

    def test_single(self):
        assert coalesce_blocks([5]) == [(5, 1)]

    def test_consecutive_run(self):
        assert coalesce_blocks([3, 4, 5]) == [(3, 3)]

    def test_gaps_split_runs(self):
        assert coalesce_blocks([1, 2, 4, 5, 9]) == [(1, 2), (4, 2), (9, 1)]

    def test_unsorted_and_duplicates(self):
        assert coalesce_blocks([5, 3, 4, 4, 3]) == [(3, 3)]

    @given(st.sets(st.integers(min_value=0, max_value=500)))
    def test_runs_partition_the_input(self, blocks):
        runs = coalesce_blocks(blocks)
        covered = []
        for first, count in runs:
            covered.extend(range(first, first + count))
        assert sorted(covered) == sorted(blocks)

    @given(st.sets(st.integers(min_value=0, max_value=500)))
    def test_runs_are_maximal(self, blocks):
        runs = coalesce_blocks(blocks)
        for i, (first, count) in enumerate(runs):
            # no run touches its successor
            if i + 1 < len(runs):
                assert first + count < runs[i + 1][0]

    # -- full property contract over arbitrary (duplicated, unsorted) input ----

    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=100))
    def test_runs_are_sorted_ascending(self, blocks):
        runs = coalesce_blocks(blocks)
        firsts = [first for first, _ in runs]
        assert firsts == sorted(firsts)

    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=100))
    def test_runs_are_disjoint(self, blocks):
        runs = coalesce_blocks(blocks)
        seen: set[int] = set()
        for first, count in runs:
            members = set(range(first, first + count))
            assert not (members & seen), f"run ({first},{count}) overlaps earlier runs"
            seen |= members

    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=100))
    def test_cover_is_exact_no_duplication_or_loss(self, blocks):
        runs = coalesce_blocks(blocks)
        covered: list[int] = []
        for first, count in runs:
            covered.extend(range(first, first + count))
        # every input block appears exactly once, nothing extra
        assert len(covered) == len(set(covered))
        assert set(covered) == set(blocks)

    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=100))
    def test_counts_are_positive(self, blocks):
        assert all(count >= 1 for _, count in coalesce_blocks(blocks))

    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=100))
    def test_idempotent_on_own_cover(self, blocks):
        runs = coalesce_blocks(blocks)
        cover = [b for first, count in runs for b in range(first, first + count)]
        assert coalesce_blocks(cover) == runs


class TestMigratoryRMW:
    """Read-then-write by the SAME node in one phase is migratory, not a
    conflict (conflicts involve different processors, §3.3)."""

    def test_same_node_rmw_becomes_write(self):
        s = CommSchedule(1)
        s.begin_instance()
        s.record(10, 2, "r")
        s.record(10, 2, "w")
        assert s.entries[10].kind is EntryKind.WRITE
        assert s.entries[10].writer == 2

    def test_writer_rereading_is_not_conflict(self):
        s = CommSchedule(1)
        s.begin_instance()
        s.record(10, 2, "w")
        s.record(10, 2, "r")
        assert s.entries[10].kind is EntryKind.WRITE

    def test_other_reader_still_conflicts(self):
        s = CommSchedule(1)
        s.begin_instance()
        s.record(10, 1, "r")
        s.record(10, 2, "w")  # different node writes: genuine conflict
        assert s.entries[10].kind is EntryKind.CONFLICT

    def test_writer_plus_foreign_reader_conflicts(self):
        s = CommSchedule(1)
        s.begin_instance()
        s.record(10, 2, "w")
        s.record(10, 1, "r")
        assert s.entries[10].kind is EntryKind.CONFLICT

    def test_migratory_rmw_presend_converges(self):
        """A block read-modify-written by a rotating-but-phase-stable node
        is pre-sent writable and stops missing."""
        from tests.helpers import run_one_phase, small_machine

        m, b = small_machine("predictive", n_nodes=3)
        for _ in range(4):
            m.begin_group(1)
            run_one_phase(m, {1: [("r", b), ("w", b)]})
            m.end_group()
            m.begin_group(2)
            run_one_phase(m, {2: [("r", b), ("w", b)]})
            m.end_group()
        # after warmup both sites pre-send RW grants; last 2 rounds all-hit
        assert m.stats.misses <= 5
