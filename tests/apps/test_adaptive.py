"""Tests for the Adaptive application: values, refinement, incremental schedules."""

import numpy as np
import pytest

from repro.apps import adaptive
from repro.core import make_machine
from repro.core.schedule import EntryKind
from repro.cstar.recording import record_program
from repro.util import MachineConfig
from repro.util.errors import ConfigError
from tests.apps.reference import adaptive_reference

CFG = MachineConfig(n_nodes=4, page_size=512)
SMALL = dict(size=12, iterations=6, threshold=0.05)


def run(protocol="stache", optimized=False, cfg=CFG, **kw):
    params = {**SMALL, **kw}
    prog = adaptive.build(**params)
    m = make_machine(cfg, protocol)
    env = prog.run(m, optimized=optimized)
    return env, m


class TestValues:
    def test_matches_reference(self):
        env, _ = run()
        ref_mesh, ref_level, ref_tree = adaptive_reference(**SMALL)
        np.testing.assert_array_equal(env.agg("mesh").data, ref_mesh)
        np.testing.assert_array_equal(env.agg("level").data, ref_level)
        np.testing.assert_array_equal(env.agg("tree").data, ref_tree)

    def test_optimized_values_identical(self):
        env, _ = run(protocol="predictive", optimized=True)
        ref_mesh, ref_level, ref_tree = adaptive_reference(**SMALL)
        np.testing.assert_array_equal(env.agg("mesh").data, ref_mesh)
        np.testing.assert_array_equal(env.agg("tree").data, ref_tree)

    def test_refinement_happens_near_charged_wall(self):
        env, _ = run()
        level = env.agg("level").data
        assert level.max() >= 1
        # refined cells concentrate in the left (charged) half
        left = level[:, : SMALL["size"] // 2].sum()
        right = level[:, SMALL["size"] // 2 :].sum()
        assert left > right

    def test_potential_diffuses_from_wall(self):
        env, _ = run()
        mesh = env.agg("mesh").data
        assert mesh[5, 1] > mesh[5, 5] > mesh[5, 10]

    def test_boundary_held_fixed(self):
        env, _ = run()
        mesh = env.agg("mesh").data
        assert (mesh[:, 0] == 1.0).all()
        assert (mesh[-1, 1:] == 0.0).all()


class TestKernels:
    def test_unrefined_cell_has_no_tree_updates(self):
        read0 = lambda a, b: 0.0
        level0 = lambda a, b: 0
        _, updates, _ = adaptive.cell_update(1, 1, 8, read0, level0, lambda c, k: 0.0)
        assert updates == {}

    def test_level1_cell_updates_four_quadrants(self):
        _, updates, _ = adaptive.cell_update(
            1, 1, 8, lambda a, b: 1.0, lambda a, b: 1, lambda c, k: 0.0
        )
        assert set(updates) == {0, 1, 2, 3}

    def test_level2_cell_updates_all_twenty(self):
        _, updates, _ = adaptive.cell_update(
            1, 1, 8, lambda a, b: 1.0, lambda a, b: 2, lambda c, k: 0.0
        )
        assert len(updates) == 20

    def test_refine_decision_thresholds(self):
        steep = lambda a, b: 1.0 if b == 0 else 0.0
        flat = lambda a, b: 0.5
        lvl0 = lambda a, b: 0
        assert adaptive.refine_decision(1, 1, steep, lvl0, 0.1) == 1
        assert adaptive.refine_decision(1, 1, flat, lvl0, 0.1) is None

    def test_refine_capped_at_max_level(self):
        steep = lambda a, b: 1.0 if b == 0 else 0.0
        lvlmax = lambda a, b: adaptive.MAX_LEVEL
        assert adaptive.refine_decision(1, 1, steep, lvlmax, 0.01) is None


class TestIncrementalSchedules:
    def test_schedules_grow_with_refinement(self):
        _, m = run(protocol="predictive", optimized=True)
        growth = [
            s.additions_per_instance for s in m.protocol.schedules.values()
        ]
        # at least one directive's schedule grew after its second instance
        assert any(sum(g[2:]) > 0 for g in growth)

    def test_three_directives_placed(self):
        prog = adaptive.build(**SMALL)
        placement = prog.compile()
        assert len(placement.groups) == 3  # red, black, refine

    def test_no_conflicts_with_padded_cells(self):
        _, m = run(protocol="predictive", optimized=True)
        for s in m.protocol.schedules.values():
            assert s.conflict_blocks() == []


class TestPaperShape:
    def test_optimized_faster(self):
        cfg = MachineConfig(n_nodes=8, page_size=512)
        _, m_unopt = run(cfg=cfg, size=16, iterations=8)
        _, m_opt = run(cfg=cfg, size=16, iterations=8,
                       protocol="predictive", optimized=True)
        assert m_opt.clock < m_unopt.clock

    def test_synch_time_also_reduced(self):
        """The paper's Adaptive observation: pre-sending reduces not only
        wait time but, via better balance, synchronization time too."""
        from repro.sim import TimeCategory

        cfg = MachineConfig(n_nodes=8, page_size=512)
        _, m_unopt = run(cfg=cfg, size=16, iterations=8)
        _, m_opt = run(cfg=cfg, size=16, iterations=8,
                       protocol="predictive", optimized=True)
        assert (
            m_opt.stats.mean(TimeCategory.SYNCH)
            < m_unopt.stats.mean(TimeCategory.SYNCH)
        )

    def test_conservation(self):
        _, m = run(protocol="predictive", optimized=True)
        m.stats.wall_time = m.clock
        m.stats.check_conservation()


class TestVariants:
    def test_unknown_variant_is_a_config_error(self):
        with pytest.raises(ConfigError, match="expected one of cstar$"):
            record_program(adaptive, dict(SMALL), variant="spmd", n_nodes=4,
                           page_size=512)
