"""Tests for the predictive protocol's ablation knobs and flush directive."""

import pytest

from repro.bench.ablations import predictive_knobs
from repro.core.predictive import PredictiveProtocol

from tests.helpers import run_one_phase, small_machine


def producer_consumer_iterations(m, b, iters=3, nblocks=4):
    blocks = [b + i for i in range(nblocks)]
    for _ in range(iters):
        m.begin_group(1)
        run_one_phase(m, {1: [("r", blk) for blk in blocks]})
        m.end_group()
        m.begin_group(2)
        run_one_phase(m, {0: [("w", blk) for blk in blocks]})
        m.end_group()


class TestCoalesceKnob:
    def test_knob_context_manager_restores(self):
        assert PredictiveProtocol.coalesce_presend is True
        with predictive_knobs(coalesce=False, rebuild=True):
            assert PredictiveProtocol.coalesce_presend is False
            assert PredictiveProtocol.rebuild_every_group is True
        assert PredictiveProtocol.coalesce_presend is True
        assert PredictiveProtocol.rebuild_every_group is False

    def test_uncoalesced_sends_more_messages(self):
        m, b = small_machine("predictive", n_nodes=2)
        producer_consumer_iterations(m, b)
        coalesced_msgs = m.protocol.presend_messages

        with predictive_knobs(coalesce=False):
            m2, b2 = small_machine("predictive", n_nodes=2)
            producer_consumer_iterations(m2, b2)
        assert m2.protocol.presend_messages > coalesced_msgs
        # same blocks transferred either way
        assert m2.protocol.presend_blocks == m.protocol.presend_blocks

    def test_uncoalesced_is_slower(self):
        m, b = small_machine("predictive", n_nodes=2)
        producer_consumer_iterations(m, b, iters=4, nblocks=8)
        with predictive_knobs(coalesce=False):
            m2, b2 = small_machine("predictive", n_nodes=2)
            producer_consumer_iterations(m2, b2, iters=4, nblocks=8)
        assert m2.clock > m.clock


class TestRebuildKnob:
    def test_rebuild_discards_learning(self):
        with predictive_knobs(rebuild=True):
            m, b = small_machine("predictive", n_nodes=2)
            producer_consumer_iterations(m, b)
            # every iteration faults afresh: misses grow linearly
            assert m.stats.misses >= 3 * 4  # >= iters * blocks read misses

    def test_incremental_beats_rebuild(self):
        m, b = small_machine("predictive", n_nodes=2)
        producer_consumer_iterations(m, b, iters=5)
        with predictive_knobs(rebuild=True):
            m2, b2 = small_machine("predictive", n_nodes=2)
            producer_consumer_iterations(m2, b2, iters=5)
        assert m.stats.misses < m2.stats.misses
        assert m.clock < m2.clock


class TestFlushDirective:
    def test_flush_clears_schedule(self):
        m, b = small_machine("predictive", n_nodes=2)
        producer_consumer_iterations(m, b, iters=2)
        assert len(m.protocol.schedules.fetch(1)) > 0
        m.protocol.flush_schedule(1)
        assert len(m.protocol.schedules.fetch(1)) == 0

    def test_flush_unknown_directive_is_noop(self):
        m, b = small_machine("predictive", n_nodes=2)
        m.protocol.flush_schedule(999)  # must not raise

    def test_schedule_relearns_after_flush(self):
        m, b = small_machine("predictive", n_nodes=2)
        producer_consumer_iterations(m, b, iters=2)
        m.protocol.flush_schedule(1)
        producer_consumer_iterations(m, b, iters=2)
        assert len(m.protocol.schedules.fetch(1)) > 0
