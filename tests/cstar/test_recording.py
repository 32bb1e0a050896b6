"""The one trace front end: record once, replay for every machine.

Pins the recorded path to the results committed before it existed
(``benchmarks/MODEL_validation.json`` on the production simulator; the
Table-1 rows below on it and on the reference oracle), and checks the
recording's own contracts: block/home derivation for every block size,
immutability under replay, cache-key completeness, the bypass rules, and
the front-end counters and events.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import adaptive, barnes, water
from repro.apps.common import read_vec, write_vec
from repro.core import make_machine
from repro.cstar import recording as R
from repro.cstar.embedded import EmbeddedProgram, access
from repro.cstar.runtime import CStarRuntime, Distribution
from repro.model.layout import LayoutModel
from repro.obs.events import EventKind, EventTrace
from repro.util import ConfigError, MachineConfig, SimulationError

from tests.checkpoint import snapshot_machine
from tests.helpers import oracle_machine

BENCHMARKS = pathlib.Path(__file__).parent.parent.parent / "benchmarks"
TINY = dict(n=16, iterations=2)
CFG = MachineConfig(n_nodes=4, page_size=512)


@pytest.fixture(autouse=True)
def fresh_cache():
    R.clear_cache()
    yield
    R.clear_cache()


def columns(rec) -> list[bytes]:
    out = [rec.agg_base.tobytes(), rec.agg_stride.tobytes()]
    for ph in rec.phases():
        for col in (ph.sym, ph.table, ph.cval):
            out += [a.tobytes() for a in col]
    return out


def run_stats(prog, protocol="stache", optimized=True, cfg=CFG,
              reference=False):
    m = (oracle_machine if reference else make_machine)(cfg, protocol)
    stats = prog.run(m, optimized=optimized).finish()
    return snapshot_machine(m), stats.to_dict()


# -- (i)/(iv) the committed results, through the recorded front end ------------


# oracle == production on real application runs is asserted by
# tests/sim/test_differential.py and by the Table-1 rows below, so
# the 12 bars are reproduced on the production simulator only
def test_committed_validation_rows_reproduced():
    """All 12 figure bars (6 of them ``optimized=False`` replays of a
    recording captured from the placed tree) give the committed simulated
    wall, miss/message errors against the unchanged model, and pre-sends."""
    from repro.bench import validate as mv
    from repro.model import load_calibration

    committed = mv.load_validation(BENCHMARKS / "MODEL_validation.json")
    calibration = load_calibration(BENCHMARKS / "MODEL_calibration.json")
    specs = mv.validation_specs()
    assert [s.label for s in specs] == [c["label"] for c in committed["cases"]]
    for spec, case in zip(specs, committed["cases"]):
        assert mv._case_row(spec, calibration) == case
    assert R.cache_info()["recordings"] == 5  # one per placement, not per bar


#: the six Table-1 rows of the retired BENCH_fastpath.json snapshot:
#: (app, protocol, optimized, block size) -> (wall cycles, engine dispatches)
TABLE1_ROWS = [
    (adaptive, "stache", False, 32, 1466405.7999999921, 51017),
    (adaptive, "predictive", True, 32, 348331.0000000002, 45417),
    (barnes, "predictive", True, 32, 6952507.19999976, 108953),
    (water, "stache", False, 64, 3984945.3999999864, 162237),
    (water, "predictive", True, 32, 3857750.7999999966, 163335),
    (water, "predictive", True, 256, 3555424.200000004, 157712),
]


@pytest.mark.parametrize("reference", [True, False],
                         ids=["oracle", "production"])
def test_committed_bench_rows_reproduced(reference):
    from repro.bench import figures as F

    base = {adaptive: (F.ADAPTIVE_KW, F.ADAPTIVE_CFG),
            barnes: (F.BARNES_KW, F.BARNES_CFG),
            water: (F.WATER_KW, F.WATER_CFG)}
    for app, protocol, optimized, block_size, wall, events in TABLE1_ROWS:
        kwargs, cfg = base[app]
        m = (oracle_machine if reference else make_machine)(
            cfg.with_(block_size=block_size), protocol)
        stats = app.build(**kwargs).run(m, optimized=optimized).finish()
        assert (stats.wall_time, m.engine.total_dispatched) == (wall, events)


# -- (ii) one recording serves every block size --------------------------------


class ModuloRows(Distribution):
    """Owner = first index modulo the node count (any rank)."""

    def __init__(self, nodes):
        self.nodes = nodes

    def owner(self, idx):
        return idx[0] % self.nodes

    def validate(self, shape):
        pass


def random_program(shape, pad, home, seed):
    """Two phases of seeded scattered reads, writes and charges over
    ``data``, one invocation per row of ``over``."""
    rng = np.random.default_rng(seed)
    rows = shape[0]
    targets = [tuple(int(rng.integers(0, d)) for d in shape)
               for _ in range(4 * rows)]

    def setup(env):
        nodes = env.config.n_nodes
        env.runtime.aggregate("data", shape, dist=ModuloRows(nodes),
                              home=home, pad=pad)
        env.runtime.aggregate("over", (rows,))

    prog = EmbeddedProgram("random", setup)

    def body(ctx, env):
        data = env.agg("data")
        i = ctx.pos[0]
        total = 0.0
        for k in range(4):
            ctx.charge(1 + (i + k) % 3)
            total += ctx.read(data, targets[4 * i + k])
        ctx.charge(0.5 * i)
        rmw = targets[4 * i]
        ctx.write(data, rmw, ctx.read(data, rmw) + total + 1.0)
        ctx.write(data, targets[4 * i + 1], float(i))

    prog.parallel("scatter", [access("data", "r", "non-home"),
                              access("data", "w", "non-home")], body)
    prog.build(prog.loop(2, prog.call("scatter", over="over",
                                      snapshot=["data"])))
    return prog


@settings(max_examples=12, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 40)),
        st.tuples(st.integers(1, 12), st.integers(1, 9)),
        st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3)),
    ),
    pad=st.sampled_from([1, 2, 4, 5]),
    home=st.sampled_from(["owner", "round_robin"]),
    page_size=st.sampled_from([1024, 2048, 4096]),
    seed=st.integers(0, 2**16),
)
def test_blocks_and_homes_for_every_block_size(shape, pad, home, page_size, seed):
    prog = random_program(shape, pad, home, seed)
    base_cfg = MachineConfig(n_nodes=4, page_size=page_size)
    rec = R.record(base_cfg, prog.execute)
    before = columns(rec)
    data = rec.env.agg("data")
    data_idx = rec.agg_names.index("data")
    for block_size in (32, 64, 128, 256, 512, 1024):
        cfg = base_cfg.with_(block_size=block_size)
        m = make_machine(cfg, "stache")
        R.replay(rec, m)
        layout = LayoutModel(rec, cfg)
        for ph in rec.phases():
            for node in range(cfg.n_nodes):
                agg, flat, _ = ph.accesses(node)
                blocks = layout.blocks(agg, flat)
                for a, f, b in zip(agg.tolist(), flat.tolist(), blocks.tolist()):
                    if a != data_idx:
                        continue
                    addr = data.addr(np.unravel_index(f, shape))
                    assert b == m.addr_space.block_of(addr)
                    assert layout.home(b) == m.addr_space.home_of_block(b)
        # ... and replaying it equals a recording made for this very config
        fresh = make_machine(cfg, "stache")
        R.replay(R.record(cfg, prog.execute), fresh)
        assert snapshot_machine(m) == snapshot_machine(fresh)
        assert m.finish().to_dict() == fresh.finish().to_dict()
    assert columns(rec) == before


# -- (iii) replays share nothing mutable ----------------------------------------


def test_replays_are_repeatable_and_leave_the_recording_untouched():
    rec = R.record_program(water, TINY, n_nodes=4, page_size=512)
    before = columns(rec)
    assert all(not a.flags.writeable for ph in rec.phases()
               for col in (ph.sym, ph.table, ph.cval) for a in col)
    prog = water.build(**TINY)
    first = {p: run_stats(prog, p) for p in ("stache", "predictive")}
    # interleaved across protocols, both engine paths, again
    for reference in (True, False):
        for protocol in ("predictive", "stache", "predictive"):
            snap, stats = run_stats(prog, protocol, reference=reference)
            assert (snap, stats) == first[protocol]
    assert columns(rec) == before
    assert R.cache_info()["recordings"] == 1
    with pytest.raises(ValueError):
        rec.env.agg("pos").data[0, 0] = 1.0  # shared final values: read-only


def test_replay_rejects_a_different_placement():
    rec = R.record_program(water, TINY, n_nodes=4, page_size=512)
    for cfg in (MachineConfig(n_nodes=8, page_size=512),
                MachineConfig(n_nodes=4, page_size=1024)):
        with pytest.raises(ConfigError):
            R.replay(rec, make_machine(cfg, "stache"))


# -- (v) bounds and rank checks survive the fast paths ---------------------------


class TestIndexChecks:
    @pytest.fixture
    def rt(self):
        return CStarRuntime(CFG)

    @pytest.mark.parametrize("shape,bad", [
        ((6,), [(6,), (-1,), (0, 0), ()]),
        ((4, 3), [(4, 0), (0, 3), (-1, 0), (0, -1), (1,), (1, 1, 1)]),
        ((2, 3, 4), [(2, 0, 0), (0, 3, 0), (0, 0, 4), (0, 0, -1), (1, 1)]),
    ])
    def test_flatten_raises(self, rt, shape, bad):
        a = rt.aggregate("a", shape, dist=ModuloRows(4))
        last = tuple(d - 1 for d in shape)
        assert a.flatten(last) == int(np.prod(shape)) - 1
        for idx in bad:
            with pytest.raises(SimulationError):
                a.flatten(idx)

    def test_reads_and_writes_raise_inside_a_phase(self, rt):
        a = rt.aggregate("a", (4, 3))
        for bad_access in (
            lambda ctx: ctx.read(a, (4, 0)),
            lambda ctx: ctx.write(a, (0, 3), 1.0),
            lambda ctx: ctx.write(a, (0,), ctx.read(a, (0,)) + 1.0),
            lambda ctx: read_vec(ctx, a, 4),
            lambda ctx: read_vec(ctx, a, -1),
            lambda ctx: read_vec(ctx, a, 0, k=4),
            lambda ctx: write_vec(ctx, a, 4, (1.0, 2.0, 3.0)),
            lambda ctx: write_vec(ctx, a, 0, (1.0, 2.0, 3.0, 4.0)),
        ):
            with pytest.raises(SimulationError):
                rt.par_call(bad_access, over=a, elements=[(0, 0)])

    def test_row_access_needs_a_2d_aggregate(self, rt):
        a = rt.aggregate("a", (6,))
        with pytest.raises(SimulationError):
            rt.par_call(lambda ctx: read_vec(ctx, a, 0, k=1), over=a,
                        elements=[(0,)])

    def test_batched_row_access_equals_scalar_accesses(self, rt):
        a = rt.aggregate("a", (4, 4))
        a.data[:] = np.arange(16.0).reshape(4, 4)
        seen = {}

        def batched(ctx):
            ctx.charge(2)
            seen["batched"] = read_vec(ctx, a, 2)
            write_vec(ctx, a, 1, (7, 8.5))

        def scalar(ctx):
            ctx.charge(2)
            seen["scalar"] = tuple(float(ctx.read(a, (2, f))) for f in range(3))
            for f, v in enumerate((7, 8.5)):
                ctx.write(a, (1, f), float(v))

        one = rt.par_call(batched, over=a, elements=[(0, 0)])
        values = a.data.copy()
        a.data[1, :2] = (4.0, 5.0)
        two = rt.par_call(scalar, over=a, elements=[(0, 0)])
        assert seen["batched"] == seen["scalar"] == (8.0, 9.0, 10.0)
        assert all(type(v) is float for v in seen["batched"])
        assert np.array_equal(a.data, values)
        ops = one.ops(0, lambda agg, flat: flat)
        assert ops == two.ops(0, lambda agg, flat: flat)
        assert ops == [("c", 2.0), ("r", 8), ("r", 9), ("r", 10), ("w", 4),
                       ("w", 5)]


# -- cache key: complete, and bypassed where it must be ---------------------------


class TestCacheKey:
    def test_spelled_out_defaults_share_a_recording(self):
        a = R.record_program(water, dict(n=16), n_nodes=4, page_size=512)
        b = R.record_program(water, dict(n=16, box=6.0, variant="cstar"),
                             n_nodes=4, page_size=512)
        assert a is b
        assert (R.recording_key(water, dict(n=16), "splash", 4, 512)
                == R.recording_key(water, dict(n=16, variant="splash"),
                                   "cstar", 4, 512))

    @pytest.mark.parametrize("other", [
        dict(build_kwargs=dict(TINY, box=7.0)),
        dict(variant="splash"),
        dict(n_nodes=8),
        dict(page_size=1024),
    ], ids=["kwarg", "variant", "n_nodes", "page_size"])
    def test_every_axis_separates_recordings(self, other):
        base = dict(build_kwargs=TINY, variant="cstar", n_nodes=4,
                    page_size=512)

        def rec(build_kwargs, variant, n_nodes, page_size):
            return R.record_program(water, build_kwargs, variant,
                                    n_nodes=n_nodes, page_size=page_size)

        assert rec(**base) is not rec(**{**base, **other})
        assert R.cache_info()["recordings"] == 2

    def test_unhashable_kwarg_is_a_config_error_naming_it(self):
        with pytest.raises(ConfigError, match="'box'"):
            R.recording_key(water, dict(n=16, box=[6.0]), "cstar", 4, 512)

    def test_programs_built_by_an_app_share_through_run(self):
        _, first = run_stats(water.build(n=16, iterations=2, dt=0.002))
        _, again = run_stats(water.build(**TINY), "stache", optimized=False)
        info = R.cache_info()
        assert (info["recordings"], info["replays"], info["cached"]) == (1, 2, 1)
        assert first != again  # directives honoured vs. ignored

    def test_params_bypass_the_cache(self):
        prog = water.build(**TINY)
        m = make_machine(CFG, "stache")
        env = prog.run(m, params={"note": 1})
        assert env.params == {"note": 1} and env.machine is m
        assert env.agg("pos").data.flags.writeable  # private to this run
        assert R.cache_info()["cached"] == 0
        assert R.cache_info()["recordings"] == 1

    def test_adhoc_programs_are_recorded_per_run(self):
        prog = random_program((6, 2), 1, "owner", seed=3)
        assert prog.identity is None
        assert run_stats(prog) == run_stats(prog)
        info = R.cache_info()
        assert (info["recordings"], info["cached"]) == (2, 0)

    def test_cache_is_bounded_most_recently_used(self):
        for n in range(8, 8 + R._CACHE_SLOTS + 1):
            R.record_program(water, dict(n=n, iterations=1), n_nodes=4,
                             page_size=512)
        info = R.cache_info()
        assert info["recordings"] == R._CACHE_SLOTS + 1
        assert info["cached"] == R._CACHE_SLOTS
        R.record_program(water, dict(n=8, iterations=1), n_nodes=4,
                         page_size=512)  # evicted: recorded again
        assert R.cache_info()["recordings"] == R._CACHE_SLOTS + 2


# -- observability: which front end produced a number ----------------------------


def test_counters_and_events_tell_record_from_reuse():
    kinds = []
    for _ in range(2):
        tracer = EventTrace()
        m = make_machine(CFG, "predictive")
        m.attach_tracer(tracer)
        stats = water.build(**TINY).run(m).finish()
        kinds.append([ev.kind for ev in tracer.events
                      if ev.kind.startswith("frontend.")])
        replayed = tracer.of_kind(EventKind.FRONTEND_REPLAY)[0]
        assert replayed.ts == stats.wall_time
        assert replayed.attrs == {"ops": sum(
            ph.op_count() for ph in R.record_program(
                water, TINY, n_nodes=4, page_size=512).phases()),
            "keyed": True, "optimized": True}
    assert kinds == [[EventKind.FRONTEND_RECORD, EventKind.FRONTEND_REPLAY],
                     [EventKind.FRONTEND_REPLAY]]
    info = R.cache_info()
    assert (info["recordings"], info["replays"], info["cached"]) == (1, 2, 1)
    assert info["ops_recorded"] == replayed.attrs["ops"]
    assert info["column_bytes"] > 0 and info["record_seconds"] > 0
    assert "frontend" not in json.dumps(stats.to_dict())


def test_all_three_apps_record_from_the_placed_tree():
    """The keyed recording carries the optimized program's group events;
    an unoptimized replay issues none of them."""
    for app, kw in ((adaptive, dict(size=8, iterations=2)),
                    (barnes, dict(n=16, iterations=1)),
                    (water, TINY)):
        rec = R.record_program(app, kw, n_nodes=4, page_size=512)
        groups = [k for k, _ in rec.events if k == "begin_group"]
        assert groups, app.__name__
        m = make_machine(CFG, "predictive")
        m.recorder = session = []
        R.replay(rec, m, optimized=False)
        assert {ev[0] for ev in session} == {"phase"}
        assert len(session) == len(rec.phases())
