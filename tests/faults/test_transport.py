"""Integration tests for the reliable transport on a real machine.

Each test runs a tiny workload under a *scripted* plan that hits one exact
transmission, then checks the transport healed it (retry, dedup, in-order
delivery) and left the machine quiescent — or, for the unrecoverable plan,
that it failed fast with structured context.
"""

import pytest

from repro.faults import FaultPlan, UNRECOVERABLE_PLAN
from repro.faults.plan import FaultEvent
from repro.tempest.machine import PhaseTrace
from repro.util import TransportTimeout
from repro.verify.monitor import InvariantMonitor

from tests.helpers import small_machine


def _read_phase(m, first, reader=1):
    """node ``reader`` reads the first block; everyone else idles."""
    ops = [[] for _ in range(len(m.nodes))]
    ops[reader] = [("r", first)]
    m.run_phase(PhaseTrace("p0", ops))


def _fault_free_stats(reader=1):
    m, first = small_machine("stache")
    _read_phase(m, first, reader)
    return m


class TestHealing:
    def test_dropped_request_is_retried_and_healed(self):
        baseline = _fault_free_stats()
        m, first = small_machine("stache")
        FaultPlan(events=(
            FaultEvent("drop", ("msg", "GET_RO", 1, 0, 0, 0, 0)),
        )).install(m)
        monitor = InvariantMonitor().attach(m)
        _read_phase(m, first)
        assert m.stats.transport_retries == 1
        assert m.stats.misses == baseline.stats.misses  # access completed
        assert m._transport.unacked == 0 and m._transport.held_back == 0
        assert monitor.checks_run == 1
        # healing costs time, never correctness
        assert m.clock > baseline.clock

    def test_duplicated_data_is_suppressed(self):
        m, first = small_machine("stache")
        FaultPlan(events=(
            FaultEvent("dup", ("msg", "DATA_RO", 0, 1, 0, 0, 0), amount=50.0),
        )).install(m)
        InvariantMonitor().attach(m)
        _read_phase(m, first)
        assert m.stats.duplicates_suppressed == 1
        assert m.stats.transport_retries == 0
        assert m.network.messages_delivered > 0

    def test_lost_ack_costs_retry_then_dedup(self):
        m, first = small_machine("stache")
        FaultPlan(events=(
            FaultEvent("drop", ("msg", "TACK", 0, 1, 0, 0, 0)),
        )).install(m)
        InvariantMonitor().attach(m)
        _read_phase(m, first)
        # the GET_RO was received but its ack died: the sender retried, the
        # receiver suppressed the second copy
        assert m.stats.transport_retries == 1
        assert m.stats.duplicates_suppressed == 1

    def test_delayed_message_keeps_fifo_order(self):
        # delay the GET_RO; a later GET_RW on the same channel must not
        # overtake it at the protocol layer
        m, first = small_machine("stache")
        FaultPlan(events=(
            FaultEvent("delay", ("msg", "GET_RO", 1, 0, 0, 0, 0),
                       amount=400.0),
        )).install(m)
        monitor = InvariantMonitor().attach(m)
        ops = [[] for _ in range(len(m.nodes))]
        ops[1] = [("r", first), ("w", first + 1)]
        m.run_phase(PhaseTrace("p0", ops))
        assert m.stats.misses == 2
        assert m._transport.held_back == 0
        assert monitor.checks_run == 1


class TestFailFast:
    def test_unrecoverable_plan_raises_structured_timeout(self):
        m, first = small_machine("stache")
        UNRECOVERABLE_PLAN.install(m)
        with pytest.raises(TransportTimeout) as e:
            _read_phase(m, first)
        err = e.value
        assert err.node is not None
        assert err.block is not None
        assert err.event is not None and err.event.action == "drop"
        assert "GET_RO" in (err.message_repr or "")
        assert m.stats.transport_timeouts == 1

    def test_budget_bounds_time_to_failure(self):
        m, first = small_machine("stache")
        UNRECOVERABLE_PLAN.install(m)
        with pytest.raises(TransportTimeout) as e:
            _read_phase(m, first)
        # fail-fast: within the budget plus one backoff period, not hours in
        assert e.value.time < 4 * UNRECOVERABLE_PLAN.timeout_budget


class TestFastPath:
    def test_zero_plan_installs_nothing(self):
        m, _ = small_machine("stache")
        FaultPlan().install(m)
        assert m._transport is None
        assert m.fault_injector is None
        assert m.network.injector is None

    def test_none_plan_installs_nothing(self):
        m, _ = small_machine("stache")  # no plan: nothing to install
        assert m._transport is None

    def test_zero_plan_run_is_bit_identical(self):
        runs = []
        for plan in (None, FaultPlan()):
            m, first = small_machine("predictive")
            if plan is not None:
                plan.install(m)
            m.begin_group(1)
            _read_phase(m, first)
            m.end_group()
            runs.append(m.finish().summary_rows())
        assert runs[0] == runs[1]

    def test_stall_only_plan_skips_transport(self):
        m, first = small_machine("stache")
        FaultPlan(stall_rate=1.0, stall_cycles=500.0).install(m)
        assert m._transport is None  # messages unperturbed
        assert all(node.stall_hook is not None for node in m.nodes)
        baseline = _fault_free_stats()
        _read_phase(m, first)
        assert m.clock > baseline.clock
