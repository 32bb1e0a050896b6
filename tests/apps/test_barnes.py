"""Tests for Barnes: octree, force kernel, phases, variants, paper shape."""

import numpy as np
import pytest

from repro.apps import barnes
from repro.apps.barnes import Octree, TreeLayout, traverse_force
from repro.core import make_machine
from repro.util import MachineConfig
from repro.util.errors import ConfigError
from tests.apps.reference import barnes_direct_reference, barnes_reference

CFG = MachineConfig(n_nodes=4, page_size=1024)
SMALL = dict(n=48, iterations=2)


def run(variant="cstar", protocol="stache", optimized=False, cfg=CFG, **kw):
    params = {**SMALL, **kw}
    prog = barnes.build(variant=variant, **params)
    m = make_machine(cfg, protocol)
    env = prog.run(m, optimized=optimized)
    return env, m


class TestOctree:
    def positions(self, n=32, seed=3):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1, 1, (n, 3))

    def test_every_body_in_exactly_one_leaf(self):
        pos = self.positions()
        tree = Octree(pos)
        leaves = [nd.body for nd in tree.nodes if nd.body != -1]
        assert sorted(leaves) == list(range(len(pos)))

    def test_bodies_inside_their_leaf_cube(self):
        pos = self.positions()
        tree = Octree(pos)
        for nd in tree.nodes:
            if nd.body == -1:
                continue
            assert (np.abs(pos[nd.body] - nd.center) <= nd.half * 1.0001).all()

    def test_children_are_proper_octants(self):
        tree = Octree(self.positions())
        for nd in tree.nodes:
            for o, c in enumerate(nd.children):
                if c == -1:
                    continue
                child = tree.nodes[c]
                assert child.half == pytest.approx(nd.half / 2)
                assert child.depth == nd.depth + 1

    def test_dfs_order_contiguous_subtrees(self):
        tree = Octree(self.positions())
        layout = TreeLayout.build(self.positions())
        # a parent's row precedes all rows in its subtree
        for node_id, nd in enumerate(layout.octree.nodes):
            for c in nd.children:
                if c != -1:
                    assert layout.row_of[c] > layout.row_of[node_id]

    def test_depth_levels_cover_internal_nodes(self):
        tree = Octree(self.positions())
        levels = tree.depth_levels()
        internal = sum(1 for nd in tree.nodes if nd.body == -1)
        assert sum(len(l) for l in levels) == internal

    def test_mass_conservation_in_reference_tree(self):
        """After the upward pass the root mass is the total mass."""
        # run reference one iteration and reuse its tree construction
        pos, vel = barnes_reference(n=24, iterations=1)
        assert np.isfinite(pos).all()


class TestForceKernel:
    def test_bh_approximates_direct_sum(self):
        n = 48
        acc_direct = barnes_direct_reference(n=n)
        # reconstruct BH acceleration at iteration 0 via the reference with
        # dt=0: pos after one step with dt -> vel = acc*dt
        dt = 1e-6
        pos0, vel1 = barnes_reference(n=n, iterations=1, dt=dt, vel_scale=0.0)
        acc_bh = vel1 / dt
        denom = np.linalg.norm(acc_direct, axis=1) + 1e-12
        rel = np.linalg.norm(acc_bh - acc_direct, axis=1) / denom
        assert np.median(rel) < 0.05  # theta=0.6 accuracy

    def test_theta_zero_matches_direct_exactly(self):
        n = 24
        dt = 1e-6
        acc_direct = barnes_direct_reference(n=n)
        pos0, vel1 = barnes_reference(n=n, iterations=1, dt=dt, theta=0.0,
                                      vel_scale=0.0)
        acc_bh = vel1 / dt
        np.testing.assert_allclose(acc_bh, acc_direct, rtol=1e-6)

    def test_self_interaction_excluded(self):
        # one distant body pair: force magnitudes equal and opposite
        n = 16
        dt = 1e-6
        _, vel1 = barnes_reference(n=n, iterations=1, dt=dt, vel_scale=0.0)
        assert np.isfinite(vel1).all()


class TestValues:
    @pytest.mark.parametrize(
        "variant,protocol,optimized",
        [
            ("cstar", "stache", False),
            ("cstar", "predictive", True),
            ("spmd", "write-update", False),
        ],
    )
    def test_matches_reference(self, variant, protocol, optimized):
        env, _ = run(variant=variant, protocol=protocol, optimized=optimized)
        ref_pos, ref_vel = barnes_reference(**SMALL)
        np.testing.assert_array_equal(env.agg("bodies").data[:, 0:3], ref_pos)
        np.testing.assert_array_equal(env.agg("bodies").data[:, 3:6], ref_vel)


class TestPhases:
    def test_four_directives_placed(self):
        """The paper's Figure 4: four phases in the main loop."""
        prog = barnes.build(**SMALL)
        placement = prog.compile()
        assert len(placement.groups) == 4

    def test_center_of_mass_hoisted(self):
        prog = barnes.build(**SMALL)
        placement = prog.compile()
        hoisted = [g for g in placement.groups if g.hoisted]
        assert len(hoisted) == 1
        from repro.cstar.flow import iter_calls

        calls = {c.site_id: c.function for c in iter_calls(prog.main)}
        assert all(
            calls[s] == "center_of_mass" for s in hoisted[0].site_ids
        )

    def test_update_covered_by_rule1(self):
        prog = barnes.build(**SMALL)
        placement = prog.compile()
        from repro.cstar.flow import iter_calls

        update = [c for c in iter_calls(prog.main) if c.function == "update"][0]
        assert placement.needs_schedule[update.site_id]
        assert update.summary.is_home_only()


class TestPaperShape:
    def test_predictive_cuts_remote_wait_at_32B(self):
        _, m_unopt = run(cfg=CFG.with_(block_size=32))
        _, m_opt = run(cfg=CFG.with_(block_size=32), protocol="predictive",
                       optimized=True)
        m_unopt.stats.wall_time = m_unopt.clock
        m_opt.stats.wall_time = m_opt.clock
        w_unopt = m_unopt.stats.figure_breakdown()["Remote data wait"]
        w_opt = m_opt.stats.figure_breakdown()["Remote data wait"]
        assert w_opt < 0.75 * w_unopt

    def test_large_blocks_exploit_spatial_locality(self):
        """Barnes shows good spatial locality: the unoptimized version gains
        a lot from 1024-byte blocks (paper §5.2)."""
        _, m32 = run(cfg=CFG.with_(block_size=32))
        _, m1024 = run(cfg=CFG.with_(block_size=1024))
        assert m1024.clock < 0.6 * m32.clock

    def test_conservation_all_variants(self):
        for variant, protocol, optimized in [
            ("cstar", "stache", False),
            ("cstar", "predictive", True),
            ("spmd", "write-update", False),
        ]:
            _, m = run(variant=variant, protocol=protocol, optimized=optimized)
            m.stats.wall_time = m.clock
            m.stats.check_conservation()


class TestVariants:
    def test_unknown_variant_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cstar, spmd"):
            barnes.build(variant="bogus")
