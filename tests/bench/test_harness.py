"""Tests for the benchmark harness plumbing (small, fast configurations)."""

import pytest

from repro.apps import water
from repro.bench.harness import (
    FigureResult,
    VersionSpec,
    run_version,
    spec_from_params,
    spec_to_params,
)
from repro.bench.figures import TABLE1_ROWS, table1
from repro.util import MachineConfig

from tests.helpers import metric_series, metric_value

TINY = dict(n=16, iterations=2)
CFG = MachineConfig(n_nodes=4, page_size=512)


def tiny_spec(label="v", protocol="stache", optimized=False, variant="cstar"):
    return VersionSpec(label, water, protocol, optimized, CFG, TINY, variant)


class TestRunVersion:
    def test_produces_stats(self):
        result = run_version(tiny_spec())
        assert result.wall > 0
        b = result.breakdown()
        assert set(b) == {"Remote data wait", "Predictive protocol",
                          "Compute+Synch"}
        assert sum(b.values()) == pytest.approx(result.wall)

    def test_variant_forwarded(self):
        result = run_version(tiny_spec(variant="splash"))
        assert result.wall > 0

    def test_fresh_machine_per_run(self):
        r1 = run_version(tiny_spec())
        r2 = run_version(tiny_spec())
        assert r1.wall == r2.wall  # deterministic, independent machines


class TestSpecParams:
    def test_round_trips_with_no_path_selector(self):
        import json

        spec = tiny_spec("opt", "predictive", True, variant="splash")
        params = json.loads(json.dumps(spec_to_params(spec)))
        assert "fast" not in params
        assert spec_from_params(params) == spec


class TestFigureResult:
    def make(self):
        return FigureResult(
            "Figure X", "test",
            [run_version(tiny_spec("a")),
             run_version(tiny_spec("b", "predictive", True))],
        )

    def test_result_lookup(self):
        fig = self.make()
        assert fig.result("a").spec.label == "a"
        with pytest.raises(KeyError):
            fig.result("zzz")

    def test_relative_to_fastest(self):
        fig = self.make()
        rels = [fig.relative("a"), fig.relative("b")]
        assert min(rels) == 1.0
        assert all(r >= 1.0 for r in rels)

    def test_render_contains_all_versions(self):
        fig = self.make()
        fig.notes.append("a note")
        text = fig.render()
        assert "Figure X" in text
        assert "a note" in text
        assert "hit rate" in text
        for label in ("a", "b"):
            assert label in text


class TestTable1:
    def test_three_applications(self):
        assert len(TABLE1_ROWS) == 3
        assert [r[0] for r in TABLE1_ROWS] == ["Adaptive", "Barnes", "Water"]

    def test_paper_data_sets_quoted(self):
        text = table1()
        assert "128x128 mesh, 100 iterations" in text
        assert "16384 bodies, 3 iterations" in text
        assert "512 molecules, 20 iterations" in text


class TestScaleStability:
    def test_water_ordering_stable_across_scales(self):
        """The opt < unopt ordering must not be a size artifact."""
        for n in (16, 32):
            unopt = run_version(VersionSpec(
                "u", water, "stache", False, CFG,
                dict(n=n, iterations=3, work_scale=4.0)))
            opt = run_version(VersionSpec(
                "o", water, "predictive", True, CFG,
                dict(n=n, iterations=3, work_scale=4.0)))
            assert opt.wall < unopt.wall, f"ordering flipped at n={n}"


class TestHarnessMetrics:
    """Benchmark results speak the repro.obs metrics schema (one home for
    figure, ablation, and sweep numbers)."""

    def test_version_metrics_labelled(self):
        result = run_version(tiny_spec("a", "predictive", True))
        reg = result.metrics()
        labels = dict(version="a", protocol="predictive", optimized=True,
                      block_size=CFG.block_size)
        assert metric_value(reg, "run.wall_cycles", **labels) == result.wall
        assert (metric_value(reg, "run.phases", **labels)
                == len(result.stats.phases))

    def test_figure_metrics_merge_all_versions(self):
        fig = FigureResult(
            "Figure X", "test",
            [run_version(tiny_spec("a")),
             run_version(tiny_spec("b", "predictive", True))],
        )
        reg = fig.metrics()
        walls = [m["labels"] for m in metric_series(reg, "run.wall_cycles")]
        assert len(walls) == 2
        assert all(lab["figure"] == "Figure X" for lab in walls)
        assert {lab["version"] for lab in walls} == {"a", "b"}
        # registries stay mergeable across figures and serialize cleanly
        from repro.obs import MetricsRegistry

        roundtrip = MetricsRegistry.from_dict(reg.to_dict())
        assert roundtrip.to_dict() == reg.to_dict()

    def test_traced_benchmark_run(self):
        from repro.obs import EventTrace

        tracer = EventTrace()
        result = run_version(tiny_spec("a", "predictive", True), tracer=tracer)
        assert len(tracer) > 0
        untraced = run_version(tiny_spec("a", "predictive", True))
        assert result.wall == untraced.wall  # tracing never perturbs the run
