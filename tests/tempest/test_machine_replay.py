"""Tests for trace replay: hits, misses, barriers, and time conservation."""

import pytest

from repro.sim import TimeCategory
from repro.tempest.machine import PhaseTrace
from repro.tempest.tags import AccessTag
from repro.util import SimulationError

from tests.helpers import run_one_phase, small_machine


class TestHitsAndMisses:
    def test_home_access_is_local_hit(self):
        m, b = small_machine()
        run_one_phase(m, {0: [("r", b), ("w", b)]})
        assert m.stats.local_hits == 2
        assert m.stats.misses == 0

    def test_remote_read_misses_then_hits(self):
        m, b = small_machine()
        run_one_phase(m, {1: [("r", b)]})
        assert m.stats.misses == 1
        run_one_phase(m, {1: [("r", b)]})
        assert m.stats.misses == 1
        assert m.stats.local_hits == 1

    def test_compute_charges_compute_time(self):
        m, b = small_machine()
        run_one_phase(m, {0: [("c", 500)]})
        assert m.nodes[0].stats.cycles[TimeCategory.COMPUTE] == 500

    def test_remote_wait_positive_on_miss(self):
        m, b = small_machine()
        run_one_phase(m, {1: [("r", b)]})
        wait = m.nodes[1].stats.cycles[TimeCategory.REMOTE_WAIT]
        # at least fault + two message flights
        cfg = m.config
        assert wait >= cfg.fault_cost + 2 * cfg.msg_latency

    def test_read_after_remote_write_misses_again(self):
        m, b = small_machine()
        run_one_phase(m, {1: [("r", b)]})          # node 1 caches RO
        run_one_phase(m, {0: [("w", b)]})          # home upgrade invalidates node 1
        run_one_phase(m, {1: [("r", b)]})          # miss again
        assert m.nodes[1].stats.read_misses == 2


class TestBarriers:
    def test_synch_charged_to_early_finisher(self):
        m, b = small_machine()
        run_one_phase(m, {0: [("c", 10)], 1: [("c", 1000)]})
        assert m.nodes[0].stats.cycles[TimeCategory.SYNCH] > \
               m.nodes[1].stats.cycles[TimeCategory.SYNCH]

    def test_clock_advances_past_slowest(self):
        m, b = small_machine()
        run_one_phase(m, {1: [("c", 1000)]})
        assert m.clock >= 1000 + m.config.barrier_latency

    def test_phases_accumulate(self):
        m, b = small_machine()
        run_one_phase(m, {0: [("c", 100)]})
        t1 = m.clock
        run_one_phase(m, {0: [("c", 100)]})
        assert m.clock > t1
        assert len(m.stats.phases) == 2


class TestConservation:
    def test_categories_sum_to_wall_time(self):
        m, b = small_machine()
        run_one_phase(m, {0: [("c", 50), ("w", b)], 1: [("r", b), ("c", 10)]})
        run_one_phase(m, {1: [("r", b + 1), ("c", 700)]})
        stats = m.finish()
        stats.check_conservation()

    def test_conservation_with_predictive(self):
        m, b = small_machine("predictive")
        for _ in range(3):
            m.begin_group(1)
            run_one_phase(m, {1: [("r", b)]})
            m.end_group()
            m.begin_group(2)
            run_one_phase(m, {0: [("w", b)]})
            m.end_group()
        m.finish().check_conservation()


class TestGuards:
    def test_wrong_stream_count_rejected(self):
        m, b = small_machine()
        with pytest.raises(SimulationError):
            m.run_phase(PhaseTrace("bad", [[]]))

    @pytest.mark.parametrize("op", [
        pytest.param(("x", 0), id="unknown-kind"),
        pytest.param(("c", float("nan")), id="nan-charge"),
        pytest.param(("c", float("inf")), id="infinite-charge"),
        pytest.param(("c", "x"), id="non-numeric-charge"),
        pytest.param(("r", 1.5), id="float-block"),
        pytest.param(("w", True), id="bool-block"),
        pytest.param(("r",), id="missing-operand"),
    ])
    def test_unknown_op_rejected(self, op):
        # trace files come from outside the program: every malformed op is
        # rejected before the phase starts, naming the phase, node and op
        m, b = small_machine()
        with pytest.raises(SimulationError, match=r"phase 'phase', node 0"):
            run_one_phase(m, {0: [("r", b), op]})

    def test_access_order_preserved_per_node(self):
        # write then read of the same home block must both hit
        m, b = small_machine()
        run_one_phase(m, {0: [("w", b), ("r", b), ("w", b + 1)]})
        assert m.stats.local_hits == 3


class TestHorizonCorrectness:
    def test_invalidation_ordering_respected(self):
        """Node 1 holds a copy; node 0's upgrade mid-phase invalidates it;
        node 1's *later* access must miss, despite node 1 running ahead."""
        m, b = small_machine()
        run_one_phase(m, {1: [("r", b)]})  # node 1 caches
        # node 0 upgrades immediately; node 1 computes for a long time and
        # reads afterwards -> the INV lands before node 1's read
        run_one_phase(m, {0: [("w", b)], 1: [("c", 100000), ("r", b)]})
        assert m.nodes[1].stats.read_misses == 2
        m.finish().check_conservation()
