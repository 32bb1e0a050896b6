"""End-to-end tests of the Stache write-invalidate protocol through traces.

Each scenario replays a short hand-written trace on a small machine and
asserts the resulting tags, directory state, and message behaviour.
"""

import pytest

from repro.protocols.directory import DirState
from repro.tempest.tags import AccessTag
from repro.util import ProtocolError

from tests.helpers import run_one_phase, small_machine
from tests.oracle import check_directory, check_entry


def dir_entry(m, block):
    return m.protocol.directory.entry(block)


class TestReadPath:
    def test_remote_read_creates_sharer(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("r", b)]})
        e = dir_entry(m, b)
        assert e.state == DirState.SHARED
        assert e.sharers == {1}
        assert m.nodes[1].tags.get(b) is AccessTag.READ_ONLY
        assert m.nodes[0].tags.get(b) is AccessTag.READ_ONLY  # home downgraded

    def test_multiple_readers_accumulate(self):
        m, b = small_machine(n_nodes=4)
        run_one_phase(m, {1: [("r", b)], 2: [("r", b)], 3: [("r", b)]})
        assert dir_entry(m, b).sharers == {1, 2, 3}

    def test_read_of_exclusive_block_recalls_writer(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("w", b)]})                  # node 1 takes RW
        assert dir_entry(m, b).state == DirState.EXCLUSIVE
        run_one_phase(m, {2: [("r", b)]})                  # node 2 reads
        e = dir_entry(m, b)
        assert e.state == DirState.SHARED
        assert e.sharers == {2}
        # paper: the producer's copy is invalidated, not downgraded
        assert m.nodes[1].tags.get(b) is AccessTag.INVALID
        assert m.nodes[2].tags.get(b) is AccessTag.READ_ONLY

    def test_home_read_of_exclusive_block(self):
        m, b = small_machine(n_nodes=2)
        run_one_phase(m, {1: [("w", b)]})
        run_one_phase(m, {0: [("r", b)]})
        e = dir_entry(m, b)
        assert e.state == DirState.IDLE
        assert m.nodes[0].tags.get(b) is AccessTag.READ_WRITE
        assert m.nodes[1].tags.get(b) is AccessTag.INVALID


class TestWritePath:
    def test_remote_write_takes_exclusive(self):
        m, b = small_machine(n_nodes=2)
        run_one_phase(m, {1: [("w", b)]})
        e = dir_entry(m, b)
        assert e.state == DirState.EXCLUSIVE
        assert e.owner == 1
        assert m.nodes[1].tags.get(b) is AccessTag.READ_WRITE
        assert m.nodes[0].tags.get(b) is AccessTag.INVALID  # home gave it up

    def test_write_invalidates_all_readers(self):
        m, b = small_machine(n_nodes=4)
        run_one_phase(m, {1: [("r", b)], 2: [("r", b)]})
        run_one_phase(m, {3: [("w", b)]})
        e = dir_entry(m, b)
        assert e.state == DirState.EXCLUSIVE and e.owner == 3
        assert m.nodes[1].tags.get(b) is AccessTag.INVALID
        assert m.nodes[2].tags.get(b) is AccessTag.INVALID

    def test_upgrade_by_sole_sharer(self):
        m, b = small_machine(n_nodes=2)
        run_one_phase(m, {1: [("r", b)]})
        run_one_phase(m, {1: [("w", b)]})
        e = dir_entry(m, b)
        assert e.state == DirState.EXCLUSIVE and e.owner == 1

    def test_home_upgrade_invalidates_readers(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("r", b)], 2: [("r", b)]})
        run_one_phase(m, {0: [("w", b)]})
        e = dir_entry(m, b)
        assert e.state == DirState.IDLE
        assert m.nodes[0].tags.get(b) is AccessTag.READ_WRITE
        assert m.nodes[1].tags.get(b) is AccessTag.INVALID

    def test_write_steals_from_other_writer(self):
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("w", b)]})
        run_one_phase(m, {2: [("w", b)]})
        e = dir_entry(m, b)
        assert e.state == DirState.EXCLUSIVE and e.owner == 2
        assert m.nodes[1].tags.get(b) is AccessTag.INVALID


class TestContention:
    def test_concurrent_read_and_write_same_block(self):
        """Race on one block within a phase must serialize via the home's
        pending queue and still leave a consistent final state."""
        m, b = small_machine(n_nodes=4)
        run_one_phase(m, {1: [("r", b)], 2: [("w", b)], 3: [("r", b)]})
        e = dir_entry(m, b)
        check_entry(e)
        assert e.state in (DirState.SHARED, DirState.EXCLUSIVE)
        m.finish().check_conservation()

    def test_many_writers_alternating(self):
        m, b = small_machine(n_nodes=4)
        for writer in (1, 2, 3, 1, 2):
            run_one_phase(m, {writer: [("w", b)]})
        e = dir_entry(m, b)
        assert e.state == DirState.EXCLUSIVE and e.owner == 2
        check_directory(m.protocol.directory)

    def test_hot_home_serializes_handlers(self):
        """Many simultaneous requesters to one home: total time grows with
        handler occupancy, not just one round trip."""
        m, b = small_machine(n_nodes=8)
        run_one_phase(m, {i: [("r", b + i)] for i in range(1, 8)})
        # all 7 requests hit node 0's handler; the last reply cannot complete
        # before 7 serviced requests
        cfg = m.config
        min_serial = 7 * (cfg.handler_cost + cfg.directory_lookup_cost)
        assert m.clock >= min_serial

    def test_four_message_producer_consumer_cost(self):
        """Paper §3.2: producer->consumer transfer with a third-party home
        takes four message flights."""
        m, b = small_machine(n_nodes=3)
        run_one_phase(m, {1: [("w", b)]})          # producer writes
        t0 = m.clock
        run_one_phase(m, {2: [("r", b)]})          # consumer reads
        elapsed = m.clock - t0
        cfg = m.config
        assert elapsed >= 4 * cfg.msg_latency  # GET_RO, RECALL, WB, DATA


class TestProtocolInvariants:
    def test_directory_consistent_after_random_phases(self):
        m, b = small_machine(n_nodes=4)
        import random

        rng = random.Random(42)
        for _ in range(20):
            busy = {}
            for node in range(4):
                ops = []
                for _ in range(rng.randint(0, 3)):
                    ops.append((rng.choice("rw"), b + rng.randint(0, 7)))
                if ops:
                    busy[node] = ops
            run_one_phase(m, busy)
        check_directory(m.protocol.directory)
        m.finish().check_conservation()

    def test_single_writer_invariant(self):
        """At every phase end: at most one RW tag per block, and RW excludes
        any RO tags on other nodes."""
        m, b = small_machine(n_nodes=4)
        import random

        rng = random.Random(7)
        blocks = [b + i for i in range(4)]
        for _ in range(15):
            busy = {
                n: [(rng.choice("rw"), rng.choice(blocks))] for n in range(4)
            }
            run_one_phase(m, busy)
            for blk in blocks:
                tags = [m.nodes[n].tags.get(blk) for n in range(4)]
                writers = sum(t is AccessTag.READ_WRITE for t in tags)
                readers = sum(t is AccessTag.READ_ONLY for t in tags)
                assert writers <= 1
                if writers:
                    assert readers == 0
