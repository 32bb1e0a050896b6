"""The analytical model against the simulator on small workloads."""

import pytest

from repro.apps import adaptive, barnes, water
from repro.bench.ablations import predictive_knobs
from repro.bench.harness import VersionSpec, run_version
from repro.model import predict
from repro.model.predictor import clear_walk_cache
from repro.sim.stats import TimeCategory
from repro.util import MachineConfig
from repro.util.errors import ConfigError

from tests.helpers import check_phase_conservation

# tiny but steal-free configurations: the walk reproduces the simulator's
# counters exactly (coarse blocks with mid-phase ping-pong would not be)
TINY = dict(n=24, iterations=2, work_scale=8.0)
CFG = MachineConfig(n_nodes=4, page_size=512)
# write-update needs producer-owned data: the SPMD Barnes variant
TINY_SPMD = dict(n=24, iterations=2, theta=0.6, dt=0.15, vel_scale=1.0,
                 work_scale=5.0)
CFG_SPMD = MachineConfig(n_nodes=4, page_size=1024, per_byte_cost=1.15)


def sim_stats(protocol="stache", optimized=False, variant="cstar", cfg=CFG,
              app=water, kw=TINY):
    spec = VersionSpec("v", app, protocol, optimized, cfg, dict(kw),
                       variant=variant)
    return run_version(spec).stats


def grid_cfg(n_nodes, block_size):
    return MachineConfig(n_nodes=n_nodes, page_size=max(512, 4 * block_size),
                         block_size=block_size, per_byte_cost=1.15)


#: the per-node counters the walk reproduces exactly on the pinned grid
NODE_COUNTERS = ("read_misses", "write_misses", "local_hits",
                 "messages_sent", "bytes_sent", "presend_blocks_sent",
                 "presend_blocks_received", "presend_useless_blocks")

WATER_GRID = dict(n=24, iterations=3, work_scale=8.0)
ADAPTIVE_GRID = dict(size=8, iterations=4)
BARNES_GRID = dict(n=24, iterations=3, theta=0.6, dt=0.15, vel_scale=1.0,
                   work_scale=5.0)

#: (app, build kwargs, variant, protocol, n_nodes, block_size): every
#: configuration measured exact, node for node; past it (coarser blocks,
#: more nodes) timing-dependent ping-pong and home races split misses
#: differently in the simulator and the walk
EXACT_GRID = (
    [(water, WATER_GRID, "cstar", protocol, n, b)
     for protocol in ("stache", "predictive")
     for n, sizes in ((2, (16, 32, 64, 128)), (4, (16, 32, 64)))
     for b in sizes]
    + [(water, WATER_GRID, "cstar", "predictive", 8, b) for b in (16, 32)]
    + [(adaptive, ADAPTIVE_GRID, "cstar", protocol, n, b)
       for protocol in ("stache", "predictive")
       for n in (2, 4) for b in (16, 32)]
    + [(adaptive, ADAPTIVE_GRID, "cstar", "stache", n, 64) for n in (4, 8)]
    + [(barnes, BARNES_GRID, "spmd", "write-update", n, b)
       for n in (2, 4, 8) for b in (16, 32, 64, 128)]
)


def _grid_id(case):
    app, _, _, protocol, n, b = case
    return f"{app.__name__.rsplit('.', 1)[-1]}-{protocol}-N{n}-B{b}"


def assert_nodes_equal(pred, sim):
    for name in NODE_COUNTERS:
        assert ([getattr(node, name) for node in pred.nodes]
                == [getattr(node, name) for node in sim.nodes]), name


class TestExactCounters:
    """On fine-grain workloads the walk reproduces the sim's counters."""

    @pytest.mark.parametrize("case", EXACT_GRID, ids=map(_grid_id, EXACT_GRID))
    def test_grid_node_counters_exact(self, case):
        app, kw, variant, protocol, n, b = case
        optimized = protocol == "predictive"
        cfg = grid_cfg(n, b)
        sim = sim_stats(protocol, optimized, variant, cfg, app, kw)
        pred = predict(app, dict(kw), protocol=protocol, optimized=optimized,
                       config=cfg, variant=variant).stats
        assert_nodes_equal(pred, sim)

    @pytest.mark.parametrize("cooldown", [0, 1, 2])
    @pytest.mark.parametrize("app,kw,block_size", [
        (water, dict(WATER_GRID, iterations=4), 32),
        (adaptive, ADAPTIVE_GRID, 16),
    ], ids=["water", "adaptive"])
    def test_warm_start_node_counters_exact(self, app, kw, block_size,
                                            cooldown):
        """Harvested schedules seeded back in, with and without a carried
        cooldown: the warm-seed and cooldown paths agree too."""
        cfg = grid_cfg(4, block_size)
        spec = VersionSpec("v", app, "predictive", True, cfg, dict(kw))
        records = [dict(record, cooldown=cooldown)
                   for record in run_version(spec, harvest=True).harvest]
        assert records
        sim = run_version(spec, warm=records).stats
        pred = predict(app, dict(kw), protocol="predictive", optimized=True,
                       config=cfg, warm=records).stats
        assert_nodes_equal(pred, sim)
        assert pred.schedules_degraded == sim.schedules_degraded

    @pytest.mark.parametrize("app,kw,cfg,variant,protocol,optimized", [
        (water, TINY, CFG, "cstar", "stache", False),
        (water, TINY, CFG, "cstar", "predictive", True),
        (barnes, TINY_SPMD, CFG_SPMD, "spmd", "write-update", False),
    ])
    def test_counts_match_sim(self, app, kw, cfg, variant, protocol,
                              optimized):
        sim = sim_stats(protocol, optimized, variant, cfg, app, kw)
        pred = predict(app, dict(kw), protocol=protocol,
                       optimized=optimized, config=cfg,
                       variant=variant).stats
        assert pred.misses == sim.misses
        assert pred.local_hits == sim.local_hits
        assert pred.messages == sim.messages
        assert pred.bytes_on_wire == sim.bytes_on_wire

    def test_presend_counts_exact(self):
        sim = sim_stats("predictive", True)
        pred = predict(water, dict(TINY), protocol="predictive",
                       optimized=True, config=CFG).stats
        for attr in ("presend_blocks_sent", "presend_blocks_received",
                     "presend_useless_blocks"):
            assert ([getattr(n, attr) for n in pred.nodes]
                    == [getattr(n, attr) for n in sim.nodes]), attr

    def test_compute_cycles_exact(self):
        sim = sim_stats("stache", False)
        pred = predict(water, dict(TINY), protocol="stache",
                       optimized=False, config=CFG).stats
        assert pred.totals()[TimeCategory.COMPUTE] == pytest.approx(
            sim.totals()[TimeCategory.COMPUTE])

    def test_wall_time_close(self):
        for protocol, optimized in [("stache", False), ("predictive", True)]:
            sim = sim_stats(protocol, optimized)
            pred = predict(water, dict(TINY), protocol=protocol,
                           optimized=optimized, config=CFG).stats
            assert pred.wall_time == pytest.approx(sim.wall_time, rel=0.10)


class TestPredictionShape:
    def test_conservation_holds(self):
        pred = predict(water, dict(TINY), protocol="predictive",
                       optimized=True, config=CFG).stats
        pred.check_conservation()
        check_phase_conservation(pred)

    def test_phase_sequence_matches_sim(self):
        sim = sim_stats("stache", False)
        pred = predict(water, dict(TINY), protocol="stache",
                       optimized=False, config=CFG).stats
        assert ([p.phase_name for p in pred.phases]
                == [p.phase_name for p in sim.phases])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            predict(water, dict(TINY), protocol="mesi", optimized=False,
                    config=CFG)

    def test_deterministic(self):
        kw = dict(protocol="predictive", optimized=True, config=CFG)
        a = predict(water, dict(TINY), **kw).stats
        b = predict(water, dict(TINY), **kw).stats
        assert a.to_dict() == b.to_dict()


class TestWalkCache:
    """Cost-axis sweeps reuse one walk: only cost parameters change."""

    def test_cost_axes_hit_the_cache(self):
        clear_walk_cache()
        first = predict(water, dict(TINY), protocol="stache",
                        optimized=False, config=CFG)
        assert not first.walk_cached
        again = predict(water, dict(TINY), protocol="stache",
                        optimized=False,
                        config=CFG.with_(msg_latency=4000, fault_cost=50))
        assert again.walk_cached

    def test_block_size_changes_miss_the_cache(self):
        clear_walk_cache()
        predict(water, dict(TINY), protocol="stache", optimized=False,
                config=CFG)
        other = predict(water, dict(TINY), protocol="stache",
                        optimized=False, config=CFG.with_(block_size=64))
        assert not other.walk_cached

    def test_cached_walk_same_prediction(self):
        clear_walk_cache()
        cold = predict(water, dict(TINY), protocol="predictive",
                       optimized=True, config=CFG).stats
        warm = predict(water, dict(TINY), protocol="predictive",
                       optimized=True, config=CFG).stats
        assert cold.to_dict() == warm.to_dict()

    def test_walk_prices_the_default_knobs(self):
        """Walks are cached without the knobs in their key, so a walk taken
        while an ablation patches the protocol class still prices the
        defaults."""
        kw = dict(protocol="predictive", optimized=True, config=CFG)
        clear_walk_cache()
        base = predict(water, dict(TINY), **kw).stats
        clear_walk_cache()
        with predictive_knobs(coalesce=False, rebuild=True):
            patched = predict(water, dict(TINY), **kw).stats
        assert patched.to_dict() == base.to_dict()

    def test_cost_change_actually_changes_cycles(self):
        base = predict(water, dict(TINY), protocol="stache",
                       optimized=False, config=CFG).stats
        slow = predict(water, dict(TINY), protocol="stache",
                       optimized=False,
                       config=CFG.with_(msg_latency=4000)).stats
        assert slow.wall_time > base.wall_time
        assert slow.misses == base.misses  # counts are cost-independent
