"""Tests for execution-time accounting."""

import pytest

from repro.sim import NodeStats, RunStats, TimeCategory


class TestNodeStats:
    def test_starts_zero(self):
        n = NodeStats(0)
        assert n.total == 0.0

    def test_add_accumulates(self):
        n = NodeStats(0)
        n.add(TimeCategory.COMPUTE, 10.0)
        n.add(TimeCategory.COMPUTE, 5.0)
        n.add(TimeCategory.SYNCH, 2.0)
        assert n.cycles[TimeCategory.COMPUTE] == 15.0
        assert n.total == 17.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NodeStats(0).add(TimeCategory.SYNCH, -1.0)


class TestRunStats:
    def make(self):
        rs = RunStats(2)
        rs.nodes[0].add(TimeCategory.COMPUTE, 100.0)
        rs.nodes[0].add(TimeCategory.REMOTE_WAIT, 20.0)
        rs.nodes[1].add(TimeCategory.COMPUTE, 60.0)
        rs.nodes[1].add(TimeCategory.SYNCH, 60.0)
        rs.wall_time = 120.0
        return rs

    def test_mean(self):
        rs = self.make()
        assert rs.mean(TimeCategory.COMPUTE) == 80.0

    def test_figure_breakdown_folds_compute_and_synch(self):
        rs = self.make()
        b = rs.figure_breakdown()
        assert b["Compute+Synch"] == 110.0
        assert b["Remote data wait"] == 10.0
        assert sum(b.values()) == pytest.approx(rs.wall_time)

    def test_conservation_passes_when_sums_match(self):
        rs = self.make()
        rs.check_conservation()

    def test_conservation_fails_on_mismatch(self):
        rs = self.make()
        rs.wall_time = 999.0
        with pytest.raises(AssertionError):
            rs.check_conservation()

    def test_hit_rate(self):
        rs = RunStats(1)
        rs.nodes[0].local_hits = 90
        rs.nodes[0].read_misses = 7
        rs.nodes[0].write_misses = 3
        assert rs.hit_rate == pytest.approx(0.9)
        assert rs.misses == 10

    def test_hit_rate_no_accesses(self):
        assert RunStats(1).hit_rate == 1.0

    def test_summary_rows_shape(self):
        rows = self.make().summary_rows()
        assert any("wall time" in r[0] for r in rows)
        assert all(len(r) == 2 for r in rows)


class TestPhaseBreakdownRoundTrip:
    def make(self):
        from repro.sim.stats import PhaseBreakdown

        return PhaseBreakdown(
            phase_name="sweep", directive_id=3, wall_start=10.0,
            wall_end=250.0, misses=4, hits=96, messages=12,
            cycles={"compute": 180.0, "remote_wait": 50.0, "synch": 10.0},
        )

    def test_to_from_dict(self):
        from repro.sim.stats import PhaseBreakdown

        ph = self.make()
        back = PhaseBreakdown.from_dict(ph.to_dict())
        assert back == ph
        assert back.cycles == ph.cycles
        assert back.wall == pytest.approx(240.0)

    def test_run_stats_round_trip_keeps_phases(self):
        rs = RunStats(1)
        rs.wall_time = 250.0
        rs.nodes[0].add(TimeCategory.COMPUTE, 250.0)
        rs.phases.append(self.make())
        back = RunStats.from_dict(rs.to_dict())
        assert len(back.phases) == 1
        assert back.phases[0] == rs.phases[0]
        assert [p.cycles for p in back.phases] == [p.cycles for p in rs.phases]

    def test_json_serializable(self):
        import json

        text = json.dumps(self.make().to_dict(), sort_keys=True)
        assert "remote_wait" in text
