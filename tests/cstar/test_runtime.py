"""Tests for aggregates, distributions, and recorded parallel calls."""

import numpy as np
import pytest

from repro.core import make_machine
from repro.cstar.recording import record, replay
from repro.cstar.runtime import (
    Block1D,
    CStarRuntime,
    RowBlock2D,
    Tiled2D,
    ELEMENT_SIZE,
)
from repro.util import ConfigError, MachineConfig, SimulationError


@pytest.fixture
def rt():
    return CStarRuntime(MachineConfig(n_nodes=4))


class TestDistributions:
    def test_block1d_contiguous(self):
        d = Block1D(n=8, nodes=4)
        assert [d.owner((i,)) for i in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_block1d_uneven(self):
        d = Block1D(n=5, nodes=4)
        owners = [d.owner((i,)) for i in range(5)]
        assert owners == [0, 0, 1, 1, 2]  # ceil(5/4)=2 per node

    def test_rowblock_bands(self):
        d = RowBlock2D(rows=8, cols=4, nodes=4)
        assert d.owner((0, 3)) == 0
        assert d.owner((2, 0)) == 1
        assert d.owner((7, 3)) == 3

    def test_tiled_covers_all_nodes(self):
        d = Tiled2D(rows=8, cols=8, nodes=4)
        owners = {d.owner((i, j)) for i in range(8) for j in range(8)}
        assert owners == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ConfigError):
            Block1D(n=8, nodes=2).validate((9,))


class TestAggregates:
    def test_allocation_and_defaults(self, rt):
        a = rt.aggregate("a", (8, 8))
        assert a.data.shape == (8, 8)
        assert a.data.dtype == np.float64
        assert isinstance(a.dist, RowBlock2D)

    def test_int_aggregate(self, rt):
        a = rt.aggregate("idx", (16,), dtype="int")
        assert a.data.dtype == np.int64
        assert isinstance(a.dist, Block1D)

    def test_bad_dtype(self, rt):
        with pytest.raises(ConfigError):
            rt.aggregate("x", (4,), dtype="complex")

    def test_addresses_are_element_strided(self, rt):
        a = rt.aggregate("a", (4, 4))
        assert a.addr((0, 1)) - a.addr((0, 0)) == ELEMENT_SIZE
        assert a.addr((1, 0)) - a.addr((0, 0)) == 4 * ELEMENT_SIZE

    def test_out_of_bounds_checked(self, rt):
        a = rt.aggregate("a", (4, 4))
        with pytest.raises(SimulationError):
            a.addr((4, 0))
        with pytest.raises(SimulationError):
            a.addr((0, -1))

    def test_rank_checked(self, rt):
        a = rt.aggregate("a", (4, 4))
        with pytest.raises(SimulationError):
            a.addr((1,))

    def test_home_alignment_with_distribution(self, rt):
        """A page's home is the owner of its first element, so own-element
        accesses are home-local."""
        a = rt.aggregate("a", (512,))  # 4096 bytes = 1 page per 512 elements
        space = rt.addr_space
        blk = space.block_of(a.addr((0,)))
        assert space.home_of_block(blk) == a.owner((0,))


class TestParCall:
    def test_values_computed(self, rt):
        a = rt.aggregate("a", (8,))

        def body(ctx):
            ctx.write(a, ctx.pos, float(ctx.pos[0]) * 2.0)

        rt.par_call(body, over=a)
        assert list(a.data) == [i * 2.0 for i in range(8)]

    def test_snapshot_semantics(self, rt):
        """Reads observe phase-entry values even after another element's
        write (C** near-determinism)."""
        a = rt.aggregate("a", (8,))
        a.data[:] = 1.0

        def body(ctx):
            i = ctx.pos[0]
            left = ctx.read(a, ((i - 1) % 8,))
            ctx.write(a, ctx.pos, left + 1.0)

        rt.par_call(body, over=a)
        # every element read the OLD left value (1.0) regardless of order
        assert list(a.data) == [2.0] * 8

    def test_trace_assigns_ops_to_owners(self, rt):
        a = rt.aggregate("a", (8,))
        seen_nodes = []

        def body(ctx):
            seen_nodes.append(ctx.node)
            ctx.write(a, ctx.pos, 0.0)

        phase = rt.par_call(body, over=a)
        assert sorted(set(seen_nodes)) == [0, 1, 2, 3]
        assert all(len(phase.accesses(node)[1]) > 0 for node in range(4))

    def test_compute_charges_recorded(self, rt):
        a = rt.aggregate("a", (4,))

        def body(ctx):
            ctx.charge(10)
            ctx.write(a, ctx.pos, 0.0)

        phase = rt.par_call(body, over=a)
        flat = [op for node in range(4)
                for op in phase.ops(node, lambda agg, flat: flat)]
        assert ("c", 10.0) in flat
        assert phase.compute == (10.0,) * 4

    def test_elements_restriction(self, rt):
        a = rt.aggregate("a", (8,))
        a.data[:] = 5.0

        def body(ctx):
            ctx.write(a, ctx.pos, 9.0)

        rt.par_call(body, over=a, elements=[(0,), (3,)])
        assert list(a.data) == [9.0, 5.0, 5.0, 9.0, 5.0, 5.0, 5.0, 5.0]

    def test_timing_accumulates_across_phases(self):
        def drive(env):
            a = env.runtime.aggregate("a", (8,))

            def body(ctx):
                ctx.charge(100)
                ctx.write(a, ctx.pos, 1.0)

            env.runtime.par_call(body, over=a)
            env.runtime.par_call(body, over=a)

        m = make_machine(MachineConfig(n_nodes=4), "stache")
        env = replay(record(m.config, drive), m)
        first, second = m.stats.phases
        assert second.wall_end > first.wall_end == second.wall_start
        assert m.clock == second.wall_end
        stats = env.finish()
        stats.check_conservation()
