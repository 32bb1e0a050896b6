"""Self-tests of the end-to-end benchmark (not part of tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e -q

They check the benchmark's own arithmetic and contracts on synthetic data
and on ``--smoke``-sized children; they never judge the program's speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import e2e_layers  # noqa: E402
import run  # noqa: E402
from e2e_spans import Span, Tracer, by_name, root_seconds, self_times  # noqa: E402
from e2e_workloads import engine_path, fast_kwargs  # noqa: E402

# -- span arithmetic -----------------------------------------------------------


def test_self_time_nested_and_back_to_back_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "body"),
        Span("a", 1.0, 4.0, 0, "body"),      # child of root
        Span("b", 4.0, 6.0, 0, "body"),      # back-to-back with a
        Span("a.inner", 2.0, 3.0, 1, "body"),  # nested in a
        Span("a", 2.2, 2.8, 3, "body"),      # same name nested deeper
    ]
    own = self_times(spans)
    assert own == pytest.approx([5.0, 2.0, 2.0, 0.4, 0.6])
    assert sum(own) == pytest.approx(root_seconds(spans))
    names = by_name(spans)
    assert names["a"]["count"] == 2
    assert names["a"]["self_s"] == pytest.approx(2.6)
    # inclusive time counts the outermost "a" only
    assert names["a"]["total_s"] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [Span("root", 0.0, 2.0, -1, "body"),
             Span("late", 1.5, 3.0, 0, "body"),
             Span("overlap", 1.0, 1.8, 0, "body")]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_self_times_conserve_the_traced_wall():
    tracer = Tracer()

    def work(n):
        return sum(i * i for i in range(n))

    with tracer.span("root"):
        for _ in range(50):
            with tracer.span("outer"):
                work(2000)
                with tracer.span("inner"):
                    work(2000)
            with tracer.span("sibling"):
                work(500)
    spans = tracer.spans("body")
    wall = root_seconds(spans)
    assert abs(sum(self_times(spans)) - wall) <= 0.02 * wall
    assert by_name(spans)["inner"]["count"] == 50


def test_tracer_filters_runs_and_keeps_parents_valid():
    tracer = Tracer()
    with tracer.span("body-root"):
        pass
    tracer.run = "probe"
    with tracer.span("probe-root"):
        with tracer.span("probe-child"):
            pass
    probe = tracer.spans("probe")
    assert [s.name for s in probe] == ["probe-root", "probe-child"]
    assert probe[1].parent == 0 and probe[0].parent == -1


# -- boundaries ----------------------------------------------------------------


def test_missing_boundary_reads_null_and_is_counted_not_raised():
    rows = tuple(
        (layer, "repro.bench.harness:FigureResult.gone" if layer == "obs.metrics_fold"
         else target, after, keyed)
        for layer, target, after, keyed in e2e_layers.BOUNDARIES)
    tracer = Tracer()
    try:
        e2e_layers.install(tracer, rows)
        with tracer.span("e2e.body"):
            pass
        outcome = {"sim_cycles": 0, "remote_misses": 0, "extra": {}}
        metrics = e2e_layers.layer_metrics(tracer, outcome)
    finally:
        tracer.unwrap_all()
    assert metrics["obs.metrics_fold_s"] is None
    assert metrics["bench.boundaries_missing"] == 1
    assert metrics["tempest.machine.run_phase_s"] == 0  # live, not entered


def test_install_wraps_and_unwraps_every_boundary():
    from repro.tempest.machine import Machine

    original = Machine.run_phase
    tracer = Tracer()
    e2e_layers.install(tracer)
    try:
        assert tracer.missing == []
        assert Machine.run_phase is not original
    finally:
        tracer.unwrap_all()
    assert Machine.run_phase is original


def test_every_per_layer_metric_is_produced():
    tracer = Tracer()
    outcome = {"sim_cycles": 0, "remote_misses": 0, "extra": {}}
    produced = set(e2e_layers.layer_metrics(tracer, outcome))
    # run.py adds the cross-run ones
    produced |= {"bench.trace_overhead_pct", "farm.speedup", "farm.efficiency",
                 "farm.overhead_s", "farm.worker_rss_mb"}
    assert produced == {name for name, *_ in e2e_layers.PER_LAYER}
    # every boundary layer feeds some metric and every metric names real ones,
    # so a vanished boundary always nulls the numbers read from it
    needed = {layer for *_, needs in e2e_layers.PER_LAYER for layer in needs}
    assert needed == {layer for layer, *_ in e2e_layers.BOUNDARIES}


# -- engine path probe ---------------------------------------------------------


def test_engine_path_probe_follows_the_signature():
    def with_flag(specs, jobs=1, fast=None):
        return specs

    def without_flag(specs, jobs=1):
        return specs

    assert fast_kwargs(with_flag) == {"fast": True}
    assert fast_kwargs(without_flag) == {}
    assert engine_path(with_flag) == "fast=True"
    assert engine_path(without_flag) == "default"
    assert engine_path(without_flag, with_flag) == "fast=True"


# -- compare -------------------------------------------------------------------


def _host(samples):
    return run.summarize(list(samples), "s")


@pytest.mark.parametrize("a, b, expected", [
    ([10.0, 10.1, 10.2, 9.9, 10.0], [10.1, 10.0, 10.2, 10.0, 9.9], "unchanged"),
    ([10.0, 10.1, 10.2, 9.9, 10.0], [12.0, 12.1, 11.9, 12.2, 12.0], "regressed"),
    ([10.0, 10.1, 10.2, 9.9, 10.0], [8.0, 8.1, 7.9, 8.2, 8.0], "improved"),
    # medians 15% apart but the runs interleave and spread > bound
    ([8.0, 10.0, 12.0, 9.0, 14.0], [9.5, 11.5, 13.0, 8.5, 15.0], "unresolved"),
])
def test_compare_host_verdicts(a, b, expected):
    word, detail = run.verdict("wall_s", "lower", 0.10, _host(a), _host(b))
    assert word == expected
    assert "base: A median" in detail  # every ratio comes with its base


def test_compare_exact_verdicts():
    same = run.verdict("sim_cycles", "lower", None, {"value": 5.0}, {"value": 5.0})
    worse = run.verdict("remote_misses", "lower", None, {"value": 5}, {"value": 6})
    better = run.verdict("remote_misses", "lower", None, {"value": 5}, {"value": 4})
    assert (same[0], worse[0], better[0]) == ("same", "regressed", "improved")


def _result(profile="full", wall=(1.0, 1.0, 1.0), failed_share=0.0):
    return {"schema": run.SCHEMA, "profile": profile,
            "provenance": {"git_commit": "0" * 40},
            "workloads": {"figures": {"end_to_end": {
                "wall_s": _host(wall), "setup_s": _host([0.3, 0.3, 0.3]),
                "peak_rss_mb": run.summarize([50.0, 50.0, 50.0], "MB"),
                "sim_cycles": {"unit": "cycles", "value": 1.0},
                "remote_misses": {"unit": "count", "value": 2},
                "failed_share": {"unit": "ratio", "value": failed_share}}}}}


def test_compare_exit_codes_and_profile_mixing(tmp_path, capsys):
    paths = {}
    for name, doc in {"base": _result(), "slow": _result(wall=(2.0, 2.0, 2.0)),
                      "failing": _result(failed_share=0.25),
                      "smoke": _result(profile="smoke")}.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    assert run.compare(paths["base"], paths["base"]) == 0
    assert "identical on every workload" in capsys.readouterr().out
    assert run.compare(paths["base"], paths["slow"]) == 1
    assert run.compare(paths["base"], paths["failing"]) == 1
    assert run.compare(paths["base"], paths["smoke"]) == 2
    assert "refusing to mix profiles" in capsys.readouterr().err


# -- the contract --------------------------------------------------------------


def test_benchmark_json_matches_the_tables():
    committed = HERE.parents[1] / "BENCHMARK.json"
    assert json.loads(committed.read_text()) == run.contract()


def test_contract_limits():
    doc = run.contract()
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert {m["name"] for m in doc["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and all(len(n) <= 64 for n in names)


# -- smoke children ------------------------------------------------------------


def test_seed_drives_campaign_inputs_but_not_figures():
    campaign = [run.spawn("campaign", seed, "smoke") for seed in (0, 1)]
    assert campaign[0]["extra"]["digests"]["fuzz"] != \
        campaign[1]["extra"]["digests"]["fuzz"]
    figures = [run.spawn("figures", seed, "smoke") for seed in (0, 1)]
    for exact in ("sim_cycles", "remote_misses"):
        assert figures[0][exact] == figures[1][exact]
    assert all(s["failed_ops"] == 0 for s in campaign + figures)


def test_traced_smoke_child_conserves_host_time():
    sample = run.spawn("scale", 0, "smoke", traced=True)
    assert sample["boundaries_missing"] == []
    dump = json.loads((run.RESULTS / sample["spans_file"]).read_text())
    spans = [Span(*row) for row in dump["spans"] if row[4] == "body"]
    wall = root_seconds(spans)
    assert abs(sum(self_times(spans)) - wall) <= 0.02 * wall
    assert wall == pytest.approx(sample["wall_s"], rel=0.02)
    layers = sample["per_layer"]
    assert layers["cstar.runtime.value_pass_s"] > 0
    assert layers["tempest.machine.run_phase_s"] > 0
    assert layers["verify.fuzz_s"] == 0  # bypassed layer: no change predicted


def test_single_workload_run_prints_the_result_line(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "campaign_farm", "--seed", "2", "--seconds", "0.5", "--trace", "0",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    doc = json.loads(out.read_text())
    assert doc["profile"] == "smoke"
    assert doc["provenance"]["seed"] == 2
    assert len(doc["provenance"]["calibration_sha256"]) == 64
    block = doc["workloads"]["campaign_farm"]
    assert block["engine_path"] in ("fast=True", "default")
    assert block["end_to_end"]["failed_share"]["value"] == 0
