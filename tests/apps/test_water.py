"""Tests for the Water application: values, pattern, and paper-shape timing."""

import numpy as np
import pytest

from repro.apps import water
from repro.core import make_machine
from repro.util import MachineConfig
from repro.util.errors import ConfigError
from tests.apps.reference import water_reference

CFG = MachineConfig(n_nodes=4, page_size=512)
SMALL = dict(n=24, iterations=3)


def run(variant="cstar", protocol="stache", optimized=False, cfg=CFG, **kw):
    params = {**SMALL, **kw}
    prog = water.build(variant=variant, **params)
    m = make_machine(cfg, protocol)
    env = prog.run(m, optimized=optimized)
    return env, env.finish()


class TestValues:
    def test_matches_sequential_reference(self):
        env, _ = run()
        ref_pos, ref_vel = water_reference(**SMALL)
        np.testing.assert_array_equal(env.agg("pos").data[:, :3], ref_pos)
        np.testing.assert_array_equal(env.agg("vel").data[:, :3], ref_vel)

    def test_optimized_values_identical(self):
        env, _ = run(protocol="predictive", optimized=True)
        ref_pos, _ = water_reference(**SMALL)
        np.testing.assert_array_equal(env.agg("pos").data[:, :3], ref_pos)

    def test_splash_values_identical(self):
        env, _ = run(variant="splash")
        ref_pos, _ = water_reference(**SMALL)
        np.testing.assert_array_equal(env.agg("pos").data[:, :3], ref_pos)

    def test_molecules_actually_move(self):
        env, _ = run()
        assert np.abs(env.agg("vel").data).max() > 0

    def test_forces_are_finite(self):
        env, _ = run()
        assert np.isfinite(env.agg("force").data).all()


class TestPattern:
    def test_two_directives_placed(self):
        prog = water.build(**SMALL)
        placement = prog.compile()
        assert len(placement.groups) == 2  # interactions + update

    def test_update_needs_schedule_by_rule1(self):
        prog = water.build(**SMALL)
        placement = prog.compile()
        from repro.cstar.flow import iter_calls

        update_calls = [c for c in iter_calls(prog.main) if c.function == "update"]
        assert update_calls and all(
            placement.needs_schedule[c.site_id] for c in update_calls
        )

    def test_static_pattern_schedule_stops_growing(self):
        """Water's pattern is static: after iteration 1 no new blocks."""
        prog = water.build(n=24, iterations=4)
        m = make_machine(CFG, "predictive")
        prog.run(m, optimized=True)
        for sched in m.protocol.schedules.values():
            assert sum(sched.additions_per_instance[2:]) == 0

    def test_steady_state_no_new_misses(self):
        prog = water.build(n=24, iterations=6)
        m = make_machine(CFG, "predictive")
        prog.run(m, optimized=True)
        # per-phase miss counts must drop to ~zero after warmup: compare
        # total misses against a 2-iteration run
        total_6 = m.stats.misses
        prog2 = water.build(n=24, iterations=2)
        m2 = make_machine(CFG, "predictive")
        prog2.run(m2, optimized=True)
        total_2 = m2.stats.misses
        assert total_6 <= total_2 * 1.25  # little growth past warmup


class TestPaperShape:
    def test_optimized_faster_than_unoptimized(self):
        _, s_unopt = run()
        _, s_opt = run(protocol="predictive", optimized=True)
        assert s_opt.wall_time < s_unopt.wall_time

    def test_optimized_beats_splash(self):
        _, s_opt = run(protocol="predictive", optimized=True)
        _, s_splash = run(variant="splash")
        assert s_opt.wall_time < s_splash.wall_time

    def test_remote_wait_reduced(self):
        _, s_unopt = run()
        _, s_opt = run(protocol="predictive", optimized=True)
        assert (
            s_opt.figure_breakdown()["Remote data wait"]
            < 0.7 * s_unopt.figure_breakdown()["Remote data wait"]
        )

    def test_conservation(self):
        for kwargs in (
            dict(),
            dict(protocol="predictive", optimized=True),
            dict(variant="splash"),
        ):
            _, stats = run(**kwargs)
            stats.check_conservation()


class TestVariants:
    @pytest.mark.parametrize("variant", ["splash-naive", "splashy", "spmd"])
    def test_unknown_variant_is_a_config_error(self, variant):
        with pytest.raises(ConfigError, match="cstar, splash"):
            water.build(variant=variant)
