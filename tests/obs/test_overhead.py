"""The disabled-tracing overhead guard (CI smoke asserts the 5% budget)."""

from repro.bench.overhead import (
    BUDGET,
    OverheadReport,
    measure_guard_cost,
    measure_overhead,
)


class TestGuardMicrobench:
    def test_guard_cost_is_positive_and_tiny(self):
        cost = measure_guard_cost(iterations=20_000)
        assert 0 < cost < 1e-5  # an attribute load is nanoseconds, not 10us


class TestReportArithmetic:
    def test_bound_and_verdict(self):
        report = OverheadReport(workload="x", untraced_seconds=1.0,
                                guard_sites=1000, per_guard_seconds=1e-6)
        assert report.bound == 1e-3
        assert report.ok
        text = report.render()
        assert "OK" in text and "0.100%" in text

    def test_over_budget_fails(self):
        report = OverheadReport(workload="x", untraced_seconds=1.0,
                                guard_sites=10_000_000,
                                per_guard_seconds=1e-5)
        assert report.bound > BUDGET
        assert not report.ok
        assert "OVER BUDGET" in report.render()


class TestSeedRunBound:
    def test_disabled_path_under_budget(self):
        """The satellite guard itself: the water seed run's disabled-tracing
        overhead bound must stay within the 5% budget."""
        report = measure_overhead(repeats=1)
        assert report.guard_sites > 1000, "instrumentation must actually fire"
        assert report.ok, report.render()
