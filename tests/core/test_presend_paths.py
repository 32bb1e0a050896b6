"""Targeted tests for the pre-send phase's less-common paths."""

import pytest

from repro.core.schedule import EntryKind
from repro.protocols.directory import DirState
from repro.tempest.tags import AccessTag

from tests.helpers import run_one_phase, small_machine
from tests.oracle import check_directory, check_entry


class TestPresendRecall:
    def test_read_presend_recalls_third_party_writer(self):
        """Block homed at 0, written by 1, read by 2 every iteration: the
        pre-send phase must recall node 1's writable copy before forwarding
        a readable copy to node 2 (the paper's four-message pattern folded
        into pre-send)."""
        m, b = small_machine("predictive", n_nodes=3)
        for _ in range(3):
            m.begin_group(1)
            run_one_phase(m, {1: [("w", b)]})
            m.end_group()
            m.begin_group(2)
            run_one_phase(m, {2: [("r", b)]})
            m.end_group()
        # steady state: group-2 presend recalls from node 1 and sends to 2
        entry = m.protocol.directory.entry(b)
        check_entry(entry)
        # after the final read phase the block is shared by node 2
        assert m.nodes[2].tags.get(b) is AccessTag.READ_ONLY
        # and the recall left node 1 without its copy before node 2 read it
        assert m.nodes[1].tags.get(b) in (AccessTag.INVALID, AccessTag.READ_WRITE)
        m.finish().check_conservation()

    def test_recall_charges_round_trip_cost(self):
        """The synchronous recall during pre-send must cost at least two
        message flights."""
        m, b = small_machine("predictive", n_nodes=3)
        m.begin_group(1)
        run_one_phase(m, {1: [("w", b)]})
        m.end_group()
        m.begin_group(2)
        run_one_phase(m, {2: [("r", b)]})
        m.end_group()
        # next write-phase presend must reclaim from wherever the copy is;
        # then the read-phase presend runs the recall-free path
        from repro.sim import TimeCategory

        m.begin_group(2)  # presend READ: directory says node 2 shared; ok
        pred = m.stats.mean(TimeCategory.PREDICTIVE)
        assert pred > 0
        m.end_group()

    def test_presend_write_skips_if_writer_already_owns(self):
        m, b = small_machine("predictive", n_nodes=2)
        m.begin_group(1)
        run_one_phase(m, {1: [("w", b)]})
        m.end_group()
        sent_before = m.protocol.presend_blocks
        m.begin_group(1)  # node 1 still owns the block: nothing to send
        run_one_phase(m, {1: [("w", b)]})
        m.end_group()
        assert m.protocol.presend_blocks == sent_before
        assert m.stats.misses == 1  # only the first write missed


class TestBulkInstallAccounting:
    def test_bulk_install_occupies_receiver_handler(self):
        """Installing a large pre-sent run costs the receiver per-block."""
        m, b = small_machine("predictive", n_nodes=2)
        blocks = [b + i for i in range(12)]
        m.begin_group(1)
        run_one_phase(m, {1: [("r", blk) for blk in blocks]})
        m.end_group()
        m.begin_group(2)
        run_one_phase(m, {0: [("w", blk) for blk in blocks]})
        m.end_group()
        busy_before = m.nodes[1].handler_busy_until
        m.begin_group(1)
        assert m.nodes[1].handler_busy_until > busy_before
        run_one_phase(m, {1: [("r", blk) for blk in blocks]})
        m.end_group()
        assert m.nodes[1].stats.presend_blocks_received == 12

    def test_presend_inv_needs_no_ack(self):
        """PRESEND_INV is one-way (the barrier subsumes acknowledgement)."""
        m, b = small_machine("predictive", n_nodes=3)
        m.begin_group(1)
        run_one_phase(m, {1: [("r", b)], 2: [("r", b)]})
        m.end_group()
        m.begin_group(2)
        run_one_phase(m, {0: [("w", b)]})
        m.end_group()
        # the write-phase presend at iteration 2 invalidates readers 1 and 2
        msgs_before = m.stats.messages
        m.begin_group(2)
        from repro.protocols.messages import MessageKind as MK

        # readers were invalidated: their tags are gone
        assert m.nodes[1].tags.get(b) is AccessTag.INVALID
        assert m.nodes[2].tags.get(b) is AccessTag.INVALID
        m.end_group()


class TestConservationWithPresend:
    def test_heavy_presend_run_conserves(self):
        m, b = small_machine("predictive", n_nodes=4)
        blocks = [b + i for i in range(8)]
        for it in range(5):
            m.begin_group(1)
            run_one_phase(
                m, {n: [("r", blk) for blk in blocks] for n in (1, 2, 3)}
            )
            m.end_group()
            m.begin_group(2)
            run_one_phase(m, {0: [("w", blk) for blk in blocks]})
            m.end_group()
        m.finish().check_conservation()
        check_directory(m.protocol.directory)
