"""The array-valued assemble: every grid column equals that point priced alone.

``predict_grid`` advances P cost tables through one walk at once; the
contract is bit-identity (``==``, not approx) with the point-at-a-time
evaluation it replaced — kept here as ``scalar_reference.assemble_point`` —
and, through the pinned table below, with the parent commit's numbers.
"""

import gc
import json
import pathlib
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import barnes, water
from repro.bench import sweeps
from repro.bench.validate import validation_specs
from repro.cstar.recording import clear_cache, record, record_program
from repro.model import Calibration, load_calibration, predict
from repro.model.predictor import (
    _get_walk,
    clear_walk_cache,
    model_info,
    predict_grid,
)
from repro.util import MachineConfig
from repro.util.errors import ConfigError

from tests.helpers import check_phase_conservation
from tests.model.scalar_reference import assemble_point

CALIBRATION = (pathlib.Path(__file__).parent.parent.parent / "benchmarks"
               / "MODEL_calibration.json")
TINY = dict(n=24, iterations=2, work_scale=8.0)
CFG = MachineConfig(n_nodes=4, page_size=512)
TINY_SPMD = dict(n=24, iterations=2, theta=0.6, dt=0.15, vel_scale=1.0,
                 work_scale=5.0)
CFG_SPMD = MachineConfig(n_nodes=4, page_size=1024, per_byte_cost=1.15)

#: (app, build kwargs, variant, base config, protocol, optimized)
CASES = {
    "stache": (water, TINY, "cstar", CFG, "stache", False),
    # block size 32 under 4 nodes: coalesced (bulk) pre-sends, and homes
    # whose first tokens leave at the same cycle — equal arrivals
    "predictive": (water, TINY, "cstar", CFG, "predictive", True),
    # SPMD Barnes: producer-owned data, push trains at every barrier
    "write-update": (barnes, TINY_SPMD, "spmd", CFG_SPMD, "write-update",
                     False),
}

#: wall_time of the 12 Figure-5/6/7 bars under the committed calibration,
#: captured at the parent commit (e447ed0, per-point scalar assemble)
PARENT_WALLS = {
    "fig5/unopt (32)": 1473883.8933239053,
    "fig5/unopt (256)": 588597.7281920594,
    "fig5/opt (32)": 349185.2830212053,
    "fig5/opt (256)": 559832.9480037992,
    "fig6/unopt (32)": 8249137.522191054,
    "fig6/unopt (1024)": 3144565.8873991705,
    "fig6/opt (32)": 7007530.388460521,
    "fig6/opt (1024)": 3110988.344485131,
    "fig6/spmd wu (32)": 3072672.4453835776,
    "fig7/unopt (64)": 3985780.723342647,
    "fig7/opt (32)": 3857486.312103695,
    "fig7/splash (64)": 4763236.78676275,
}

cost_tables = st.fixed_dictionaries(dict(
    fault_cost=st.integers(0, 400),
    msg_latency=st.integers(0, 8000),
    per_byte_cost=st.floats(0.0, 2.0, allow_nan=False),
    handler_cost=st.integers(0, 600),
    directory_lookup_cost=st.integers(0, 100),
    cache_hit_cost=st.integers(0, 4),
    barrier_latency=st.integers(0, 600),
    presend_entry_cost=st.integers(0, 80),
    bulk_msg_overhead=st.integers(0, 1600),
))
residuals = st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 2.0),
                      st.floats(0.0, 2.0))


def grid_of(case, configs, calibration=None):
    app, kw, variant, _, protocol, optimized = CASES[case]
    return predict_grid(app, kw, protocol=protocol, optimized=optimized,
                        configs=configs, variant=variant,
                        calibration=calibration)


class TestGridEqualsPointwise:
    @pytest.mark.parametrize("case", sorted(CASES))
    @given(points=st.lists(st.tuples(cost_tables, residuals), min_size=1,
                           max_size=5))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_cost_tables(self, case, points):
        base, protocol = CASES[case][3], CASES[case][4]
        configs = [base.with_(**costs) for costs, _ in points]
        cals = [Calibration(alpha={protocol: a}, gamma={protocol: g},
                            delta={protocol: d}) for _, (a, g, d) in points]
        grid = grid_of(case, configs, cals)
        for p, (cfg, (_, coeffs)) in enumerate(zip(configs, points)):
            stats, features = assemble_point(grid.walk, cfg, *coeffs)
            pred = grid.prediction(p)
            assert pred.stats.to_dict() == stats.to_dict()
            assert pred.phase_features == features
            pred.stats.check_conservation()
            check_phase_conservation(pred.stats)

    def test_cases_exercise_bulk_ties_and_pushes(self):
        probe = {}
        assemble_point(grid_of("predictive", [CFG]).walk, CFG, probe=probe)
        assert probe["bulk_sends"] > 0 and probe["arrival_ties"] > 0
        assemble_point(grid_of("write-update", [CFG_SPMD]).walk, CFG_SPMD,
                       probe=probe)
        assert probe["push_messages"] > 0

    def test_predict_is_the_one_point_grid(self):
        app, kw, variant, cfg, protocol, optimized = CASES["predictive"]
        configs = [cfg, cfg.with_(msg_latency=4000, fault_cost=50)]
        grid = grid_of("predictive", configs)
        for p, config in enumerate(configs):
            single = predict(app, kw, protocol=protocol, optimized=optimized,
                             config=config, variant=variant)
            pred = grid.prediction(p)
            assert single.stats.to_dict() == pred.stats.to_dict()
            assert single.phase_features == pred.phase_features

    def test_figure_bars_match_the_parent_commit(self):
        cal = load_calibration(CALIBRATION)
        walls = {}
        for spec in validation_specs():
            walls[spec.label] = predict(
                spec.app, spec.build_kwargs, protocol=spec.protocol,
                optimized=spec.optimized, config=spec.config,
                variant=spec.variant, calibration=cal).stats.wall_time
        assert walls == PARENT_WALLS

    def test_mixed_geometry_rejected(self):
        with pytest.raises(ConfigError):
            grid_of("stache", [CFG, CFG.with_(block_size=64)])

    def test_calibration_count_must_match(self):
        with pytest.raises(ConfigError):
            grid_of("stache", [CFG, CFG], [None])


class TestSweepGrouping:
    AXES = {"protocol": ["stache", "predictive"], "block_size": [32, 64],
            "msg_latency": [500, 2000], "handler_cost": [100, 150, 300]}

    def singly(self, doc):
        rows = []
        for point in sweeps._grid_points(self.AXES):
            cfg = CFG.with_(**{k: v for k, v in point.items()
                               if k != "protocol"})
            stats = predict(water, TINY, protocol=point["protocol"],
                            optimized=True, config=cfg).stats
            rows.append({**point, **sweeps._metric_rows(stats)[0]})
        return dict(doc, rows=rows)

    def model_doc(self, progress=None):
        return sweeps.sweep_grid(water, TINY, base_config=CFG,
                                 axes=self.AXES, backend="model",
                                 optimized=True, progress=progress)

    def test_same_document_as_one_predict_per_point(self, monkeypatch):
        # cost axes ahead of the structural ones: consecutive rows belong
        # to different walks, so the groups interleave in row order
        monkeypatch.setattr(sweeps, "SWEEP_AXES", (
            "msg_latency", "protocol", "handler_cost", "block_size",
            "n_nodes", "per_byte_cost", "fault_cost"))
        doc = self.model_doc()
        assert [r["msg_latency"] for r in doc["rows"][:13:12]] == [500, 2000]
        assert (json.dumps(doc, sort_keys=True)
                == json.dumps(self.singly(doc), sort_keys=True))

    def test_one_grid_per_structural_group(self):
        clear_walk_cache()
        lines = []
        doc = self.model_doc(progress=lines.append)
        info = model_info()
        assert (info["points"], info["groups"], info["walks"],
                info["folds"]) == (24, 4, 4, 2)
        assert len(lines) == len(doc["rows"]) == 24
        assert [line.split(":")[0] for line in lines] == [
            f"[model] point {i + 1}/24" for i in range(24)]

    def test_large_group_is_sliced(self, monkeypatch):
        whole = self.model_doc()
        monkeypatch.setattr(sweeps, "_MODEL_GRID_POINTS", 4)
        assert self.model_doc() == whole


class TestFoldAndWalkLifetime:
    def test_fold_shared_by_protocols_not_by_block_sizes(self):
        clear_walk_cache()
        rec = record_program(water, TINY, n_nodes=4, page_size=512)
        for protocol, optimized in (("stache", False), ("predictive", True)):
            predict(water, TINY, protocol=protocol, optimized=optimized,
                    config=CFG)
        assert model_info()["folds"] == 1 and model_info()["walks"] == 2
        predict(water, TINY, protocol="stache", optimized=False,
                config=CFG.with_(block_size=64))
        assert model_info()["folds"] == 2
        assert sorted(rec.folds) == [32, 64]
        assert [rec.folds[bs].block_size for bs in (32, 64)] == [32, 64]
        assert ([len(f.events) for f in rec.folds[32].fold()]
                != [len(f.events) for f in rec.folds[64].fold()])

    def test_stage_seconds_count_and_reset(self):
        clear_walk_cache()
        predict_grid(water, TINY, protocol="predictive", optimized=True,
                     configs=[CFG, CFG.with_(msg_latency=2000)])
        stages = ("fold_s", "walk_s", "assemble_s")
        assert all(model_info()[s] > 0 for s in stages)
        clear_walk_cache()
        assert all(model_info()[s] == 0 for s in stages)

    def test_keyless_recordings_do_not_share_walks(self):
        # both have key None: a table keyed on recording.key would serve
        # the first program's walk to the second
        small = record(CFG, water.build(n=16, iterations=1).execute)
        large = record(CFG, water.build(n=24, iterations=2).execute)
        assert small.key is None and large.key is None
        first, _ = _get_walk(small, CFG, "stache", False, None)
        second, cached = _get_walk(large, CFG, "stache", False, None)
        assert not cached and second is not first
        assert len(second.steps) != len(first.steps)
        assert _get_walk(small, CFG, "stache", False, None) == (first, True)

    def test_evicting_a_recording_releases_its_walks(self):
        clear_cache()
        predict(water, dict(n=8, iterations=1), protocol="stache",
                optimized=False, config=CFG)
        rec = record_program(water, dict(n=8, iterations=1), n_nodes=4,
                             page_size=512)
        (walk,) = rec.walks.values()
        alive = weakref.ref(walk)
        del rec, walk
        for n in range(9, 18):      # more placements than the table keeps
            record_program(water, dict(n=n, iterations=1), n_nodes=4,
                           page_size=512)
        gc.collect()
        assert alive() is None
