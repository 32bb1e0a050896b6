"""Tests for the command-line interface."""

import argparse
import json
import pathlib
import re

import pytest

from repro.cli import build_parser, main

from tests.helpers import metric_series, metric_value

JACOBI = pathlib.Path(__file__).parent.parent / "examples/programs/jacobi.cstar"
TRACES = pathlib.Path(__file__).parent.parent / "examples/traces"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "x.cstar"])
        assert args.protocol == "predictive"
        assert args.nodes == 8
        assert not args.unoptimized


class TestOneTimingPath:
    """The engine is chosen by the system; no verb offers a switch."""

    VERBS = ["run", "profile", "figure", "sweep", "reproduce", "faults"]

    @pytest.mark.parametrize("verb", VERBS)
    def test_help_offers_no_fast_flag(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([verb, "--help"])
        assert exit_.value.code == 0
        assert "--fast" not in capsys.readouterr().out

    def test_fast_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", str(JACOBI), "--fast"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err

    def test_bench_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bench"])
        assert exit_.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_trace_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["trace", str(JACOBI)])
        assert exit_.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err


class TestSocketWireRetired:
    """The multi-host socket farm is gone: its flags and verb are refused."""

    def test_hosts_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--hosts", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --hosts" in capsys.readouterr().err

    def test_farm_worker_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["farm-worker"])
        assert exit_.value.code == 2
        assert "invalid choice: 'farm-worker'" in capsys.readouterr().err


class TestCompile(object):
    def test_compile_example(self, capsys):
        assert main(["compile", str(JACOBI)]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out
        assert "phase group" in out

    def test_compile_verbose_shows_reaching(self, capsys):
        assert main(["compile", str(JACOBI), "-v"]) == 0
        out = capsys.readouterr().out
        assert "reaching unstructured accesses" in out
        assert "[needs schedule]" in out

    def test_compile_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.cstar"]) == 1
        assert "error" in capsys.readouterr().err

    def test_compile_bad_source(self, tmp_path, capsys):
        bad = tmp_path / "bad.cstar"
        bad.write_text("main() { let x = ; }")
        assert main(["compile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_run_example(self, capsys):
        assert main(["run", str(JACOBI), "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert "hit rate" in out

    def test_run_unoptimized(self, capsys):
        assert main(["run", str(JACOBI), "--nodes", "4", "--unoptimized",
                     "--protocol", "stache"]) == 0
        out = capsys.readouterr().out
        assert "optimized=False" in out

    def test_run_block_size(self, capsys):
        assert main(["run", str(JACOBI), "--nodes", "4",
                     "--block-size", "128"]) == 0
        assert "block=128B" in capsys.readouterr().out


class TestOtherCommands:
    def test_audit(self, capsys):
        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "StacheProtocol" in out
        assert "no holes" in out

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "Adaptive" in capsys.readouterr().out

    def test_figure_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestFrontEndLine:
    """The front-end line shows this process's recording counters; a farmed
    figure says the farm workers' recordings are not among them."""

    PATTERN = (r"front end: \d+ value pass\(es\) recorded \(\d+ ops, "
               r"\d+\.\d\ds\), \d+ replay\(s\) served, \d+\.\d\d MB of "
               r"columns resident")

    def figure_line(self, monkeypatch, capsys, jobs):
        from repro.bench import figures

        seen = []

        def fig5(jobs, corpus):
            seen.append(jobs)
            return argparse.Namespace(render=lambda: "figure 5")

        monkeypatch.setattr(figures, "fig5_adaptive", fig5)
        assert main(["figure", "fig5", "--jobs", str(jobs)]) == 0
        assert seen == [jobs]
        return capsys.readouterr().out.splitlines()[-1]

    def test_sequential_line(self, monkeypatch, capsys):
        line = self.figure_line(monkeypatch, capsys, 1)
        assert re.fullmatch(self.PATTERN, line), line

    def test_farmed_line_counts_this_process_only(self, monkeypatch, capsys):
        line = self.figure_line(monkeypatch, capsys, 2)
        assert re.fullmatch(
            self.PATTERN + r" \(this process only; the farm workers' "
            r"recordings are not included\)", line), line


class TestDumpAst:
    def test_dump_ast_round_trips(self, capsys, tmp_path):
        assert main(["compile", str(JACOBI), "--dump-ast"]) == 0
        out = capsys.readouterr().out
        ast_text = out.split("// --- analysis ---")[0]
        # the dumped AST is itself valid C** and compiles to the same analysis
        f = tmp_path / "roundtrip.cstar"
        f.write_text(ast_text)
        assert main(["compile", str(f)]) == 0
        out2 = capsys.readouterr().out
        assert "2 phase group(s) placed" in out2


class TestFaultsCommand:
    def test_list_plans_includes_crash_plans(self, capsys):
        assert main(["faults", "--list-plans"]) == 0
        out = capsys.readouterr().out
        for name in ("drop", "chaos", "crash", "crash-storm", "crash-lossy"):
            assert name in out

    def test_unknown_plan_rejected(self, capsys):
        assert main(["faults", "--plans", "no-such-plan"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_crash_campaign_smoke(self, capsys):
        rc = main(["faults", "--crash", "--seeds", "1", "--no-traces",
                   "--protocols", "stache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no coherence violations" in out
        assert "fault campaign: 3 plan(s)" in out


class TestCampaignsCheckSomething:
    """Counts are range-checked where they are declared, and a campaign
    that monitors no run fails instead of reporting a pass."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--seeds", "-1", "--no-traces"],
        ["faults", "--seeds", "1", "--variants", "0"],
        ["faults", "--seeds", "1", "--variants", "-1"],
        ["verify", "--jobs", "0"],
        ["faults", "--jobs", "-3"],
        ["figure", "table1", "--jobs", "0"],
        ["verify", "--seeds", "1", "--no-traces", "--dfs", "-3"],
        ["verify", "--seeds", "1", "--no-traces", "--dfs", "4",
         "--dfs-seeds", "-2"],
        ["verify", "--seeds", "1", "--no-traces", "--dfs", "4",
         "--dfs-depth", "-1"],
    ])
    def test_out_of_range_count_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "must be >= " in capsys.readouterr().err

    def test_overhead_repeats_rejected_before_any_run(self, capsys):
        from repro.bench.overhead import main as overhead_main

        with pytest.raises(SystemExit) as exit_:
            overhead_main(["--repeats", "0"])
        assert exit_.value.code == 2
        assert "--repeats must be >= 1" in capsys.readouterr().err

    def test_verify_with_nothing_to_check_fails(self, capsys):
        assert main(["verify", "--seeds", "0", "--no-traces"]) == 2
        out, err = capsys.readouterr()
        assert "nothing was checked: 0 monitored runs" in err
        assert "--no-traces" in err
        assert "nothing ran" in out
        assert "no coherence violations" not in out

    def test_faults_with_nothing_to_check_fails(self, tmp_path, capsys):
        assert main(["faults", "--seeds", "0",
                     "--traces", str(tmp_path / "missing")]) == 2
        out, err = capsys.readouterr()
        assert "nothing was checked: 0 fault-injected runs" in err
        assert "none found under" in err
        assert "nothing ran" in out
        assert "no coherence violations" not in out

    def test_verify_trace_workloads_alone_still_pass(self, capsys):
        assert main(["verify", "--seeds", "0", "--traces", str(TRACES),
                     "--protocols", "stache"]) == 0
        assert "monitored replay(s) — ok" in capsys.readouterr().out


class TestRunJson:
    def test_json_to_stdout_suppresses_table(self, capsys):
        assert main(["run", str(JACOBI), "--nodes", "4", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema"] == "repro.run-stats/v1"
        assert doc["run"]["protocol"] == "predictive"
        assert len(doc["nodes"]) == 4
        assert "wall time" not in out  # the table is replaced, not mixed in

    def test_json_to_file_keeps_table(self, tmp_path, capsys):
        out_path = tmp_path / "stats.json"
        assert main(["run", str(JACOBI), "--nodes", "4",
                     "--json", str(out_path)]) == 0
        assert "wall time" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.run-stats/v1"

    def test_metrics_out(self, tmp_path):
        out_path = tmp_path / "metrics.json"
        assert main(["run", str(JACOBI), "--nodes", "4",
                     "--metrics-out", str(out_path)]) == 0
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry.from_dict(json.loads(out_path.read_text()))
        assert metric_value(reg, "run.wall_cycles", app=str(JACOBI),
                            protocol="predictive", nodes=4, block_size=32,
                            optimized=True) > 0

    def test_run_trace_flag(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["run", str(JACOBI), "--nodes", "4",
                     "--trace", str(out_path)]) == 0
        assert "VALID Chrome trace" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        from repro.obs import validate_chrome_trace

        assert validate_chrome_trace(doc) == []


class TestTraceCommand:
    def test_trace_writes_valid_timeline(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "events.jsonl"
        for path in (out_path, jsonl_path):
            assert main(["run", str(JACOBI), "--nodes", "4",
                         "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "event kind" in out  # the per-kind count table
        assert "VALID Chrome trace" in out
        assert f"-> {jsonl_path}" in out
        doc = json.loads(out_path.read_text())
        names = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert names == {"machine", "node 0", "node 1", "node 2", "node 3"}
        from repro.obs import load_jsonl

        events = load_jsonl(jsonl_path)
        assert events and events[0].kind == "phase.begin"


class TestProfileCommand:
    def test_profile_prints_tables(self, capsys, tmp_path):
        json_path = tmp_path / "profile.json"
        assert main(["profile", str(JACOBI), "--nodes", "4",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "Phase timeline" in out
        assert "Schedule quality" in out
        assert "coverage" in out
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == "repro.profile/v1"
        assert doc["schedule_quality"]

    def test_profile_unoptimized_has_no_schedule_table(self, capsys):
        # no directives -> no pre-send groups -> the quality table is empty
        assert main(["profile", str(JACOBI), "--nodes", "4",
                     "--protocol", "stache", "--unoptimized"]) == 0
        assert "no pre-send activity" in capsys.readouterr().out


class TestFaultsObservability:
    def test_faults_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "faults-trace.json"
        metrics_path = tmp_path / "faults-metrics.json"
        rc = main(["faults", "--plans", "drop", "--seeds", "1",
                   "--no-traces", "--protocols", "stache",
                   "--trace", str(trace_path),
                   "--metrics-out", str(metrics_path)])
        assert rc == 0
        assert "VALID Chrome trace" in capsys.readouterr().out
        from repro.obs import MetricsRegistry, validate_chrome_trace

        assert validate_chrome_trace(
            json.loads(trace_path.read_text())) == []
        reg = MetricsRegistry.from_dict(json.loads(metrics_path.read_text()))
        assert metric_series(reg, "node.cycles")


class TestModelCommand:
    def test_predict_prints_summary(self, capsys):
        assert main(["model", "adaptive", "--uncalibrated"]) == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert "calibration: identity" in out

    def test_requires_app_without_suite(self, capsys):
        assert main(["model", "--uncalibrated"]) == 2
        assert "app is required" in capsys.readouterr().err

    def test_validate_side_by_side(self, capsys):
        assert main(["model", "adaptive", "--uncalibrated",
                     "--validate"]) == 0
        out = capsys.readouterr().out
        assert "simulated" in out
        assert "rel err" in out

    def test_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "pred.json"
        assert main(["model", "adaptive", "--uncalibrated",
                     "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["run"]["model"] is True
        assert doc["wall_time"] > 0

    def test_missing_calibration_file_errors(self, capsys):
        assert main(["model", "adaptive",
                     "--calibration", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_suite_names_its_calibration(self, tmp_path, monkeypatch,
                                         capsys):
        """Without a calibration in --dir the suite validates against the
        identity calibration, and says so, as the predict path does."""
        from repro.bench import validate as mv
        from repro.model import default_calibration, save_calibration

        monkeypatch.setattr(mv, "validate",
                            lambda cal, **kw: {"passed": True})
        monkeypatch.setattr(mv, "render_validation", lambda doc: "")
        assert main(["model", "--suite", "--quick",
                     "--dir", str(tmp_path)]) == 0
        assert ("calibration: identity (no committed calibration)"
                in capsys.readouterr().out)
        path = tmp_path / "MODEL_calibration.json"
        save_calibration(path, default_calibration())
        assert main(["model", "--suite", "--quick",
                     "--dir", str(tmp_path)]) == 0
        assert f"calibration: {path}" in capsys.readouterr().out


class TestProtocolList:
    def test_cli_literal_matches_the_factory(self):
        """The CLI keeps a literal (parsing stays light); it must name the
        same protocols, in the same order, as the factory and the model."""
        from repro import cli
        from repro.core import factory
        from repro.model import predictor

        assert cli.PROTOCOLS == tuple(factory.PROTOCOLS)
        assert predictor.PROTOCOLS == tuple(factory.PROTOCOLS)


class TestSweepCommand:
    def test_model_backed_grid(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        assert main(["sweep", "adaptive", "--model", "--uncalibrated",
                     "--axis", "msg_latency=500,1000",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert re.search(r"^model: .*; fold \d+\.\d\ds, walk \d+\.\d\ds, "
                         r"assemble \d+\.\d\ds$", out, re.M)
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("msg_latency,")
        assert len(lines) == 3

    def test_json_export_round_trips(self, tmp_path):
        out_path = tmp_path / "grid.json"
        assert main(["sweep", "adaptive", "--model", "--uncalibrated",
                     "--axis", "block_size=32,64",
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.sweep/v1"
        # host seconds stay on the terminal, out of the document
        assert "walk_s" not in out_path.read_text()
        assert [r["block_size"] for r in doc["rows"]] == [32, 64]

    def test_requires_axes(self, capsys):
        assert main(["sweep", "adaptive", "--model"]) == 2
        assert "no sweep axes" in capsys.readouterr().err

    def test_bad_axis_rejected(self, capsys):
        assert main(["sweep", "adaptive", "--model",
                     "--axis", "page_size=512"]) == 1
        assert "error" in capsys.readouterr().err

    def test_requires_app(self, capsys):
        assert main(["sweep", "--model",
                     "--axis", "msg_latency=500"]) == 2
        assert "app is required" in capsys.readouterr().err


class TestSweepAxisErrors:
    @pytest.mark.parametrize("axis, needle", [
        ("n_nodes=abc", "bad value 'abc' for sweep axis 'n_nodes'"),
        ("per_byte_cost=0.5,cheap",
         "bad value 'cheap' for sweep axis 'per_byte_cost'"),
        ("page_size=512", "unknown sweep axis 'page_size'"),
    ])
    def test_bad_axis_is_a_clean_error(self, axis, needle, capsys):
        assert main(["sweep", "water", "--model", "--axis", axis]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("backend", [[], ["--model"]],
                             ids=["sim", "model"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cost_is_a_clean_error(self, backend, value, capsys):
        assert main(["sweep", "water", *backend,
                     "--axis", f"per_byte_cost=0.6,{value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert (f"per_byte_cost must be finite and non-negative, got "
                f"{value}") in err
        assert "Traceback" not in err

    def test_axis_lists_come_from_sweep_axes(self, capsys):
        from repro.bench.sweeps import SWEEP_AXES

        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert ", ".join(SWEEP_AXES) in help_text
        assert main(["sweep", "water", "--model"]) == 2
        assert ", ".join(SWEEP_AXES) in capsys.readouterr().err


# Every verb's arguments as (option strings, dest, default, choices, nargs,
# const, required, type name), sorted by dest.  Captured from the parser
# before its shared options were gathered into groups; the deliberate
# changes since are ``--protocols``, which validates its comma list at parse
# time, the retired socket farm (``farm-worker``; ``--hosts``, ``--bind``,
# ``--port`` and ``--chaos-seed`` on verify and faults), and the retired
# ``trace`` verb (``run --trace`` writes the same files).
SURFACE = {
    'ablation': [
        ((), 'name', None, ('coalescing', 'incremental', 'flush', 'blocks'), None, None, True, None),
    ],
    'audit': [
    ],
    'compile': [
        (('--dump-ast',), 'dump_ast', False, None, 0, True, False, None),
        ((), 'file', None, None, None, None, True, None),
        (('-v', '--verbose'), 'verbose', False, None, 0, True, False, None),
    ],
    'corpus doctor': [
        (('--compact',), 'compact', False, None, 0, True, False, None),
        ((), 'dir', None, None, None, None, True, None),
        (('--scrub',), 'scrub', False, None, 0, True, False, None),
    ],
    'faults': [
        (('--corpus',), 'corpus', None, None, None, None, False, None),
        (('--crash',), 'crash', False, None, 0, True, False, None),
        (('--dump-scripts',), 'dump_scripts', None, None, None, None, False, None),
        (('--farm-events',), 'farm_events', None, None, None, None, False, None),
        (('--jobs',), 'jobs', 1, None, None, None, False, 'int'),
        (('--list-plans',), 'list_plans', False, None, 0, True, False, None),
        (('--metrics-out',), 'metrics_out', None, None, None, None, False, None),
        (('--no-shrink',), 'no_shrink', False, None, 0, True, False, None),
        (('--no-traces',), 'no_traces', False, None, 0, True, False, None),
        (('--plans',), 'plans', None, None, None, None, False, None),
        (('--protocols',), 'protocols', None, None, None, None, False, '_protocol_list'),
        (('--report-out',), 'report_out', None, None, None, None, False, None),
        (('--seeds',), 'seeds', 2, None, None, None, False, 'int'),
        (('--trace',), 'trace', None, None, None, None, False, None),
        (('--traces',), 'traces', 'examples/traces', None, None, None, False, None),
        (('--variants',), 'variants', 1, None, None, None, False, 'int'),
    ],
    'figure': [
        (('--corpus',), 'corpus', None, None, None, None, False, None),
        (('--jobs',), 'jobs', 1, None, None, None, False, 'int'),
        ((), 'name', None, ('table1', 'fig5', 'fig6', 'fig7'), None, None, True, None),
    ],
    'model': [
        ((), 'app', None, ('adaptive', 'barnes', 'water'), '?', None, False, None),
        (('--block-size',), 'block_size', None, None, None, None, False, 'int'),
        (('--calibrate',), 'calibrate', False, None, 0, True, False, None),
        (('--calibration',), 'calibration', None, None, None, None, False, None),
        (('--check',), 'check', False, None, 0, True, False, None),
        (('--dir',), 'dir', 'benchmarks', None, None, None, False, None),
        (('--json',), 'json', None, None, None, None, False, None),
        (('--nodes',), 'nodes', None, None, None, None, False, 'int'),
        (('--page-size',), 'page_size', None, None, None, None, False, 'int'),
        (('--protocol',), 'protocol', 'predictive', ('stache', 'predictive', 'write-update'), None, None, False, None),
        (('--quick',), 'quick', False, None, 0, True, False, None),
        (('--suite',), 'suite', False, None, 0, True, False, None),
        (('--timing',), 'timing', False, None, 0, True, False, None),
        (('--uncalibrated',), 'uncalibrated', False, None, 0, True, False, None),
        (('--unoptimized',), 'unoptimized', False, None, 0, True, False, None),
        (('--validate',), 'validate', False, None, 0, True, False, None),
        (('--variant',), 'variant', 'cstar', None, None, None, False, None),
        (('--write',), 'write', False, None, 0, True, False, None),
    ],
    'profile': [
        (('--block-size',), 'block_size', 32, None, None, None, False, 'int'),
        ((), 'file', None, None, None, None, True, None),
        (('--json',), 'json', None, None, None, None, False, None),
        (('--nodes',), 'nodes', 8, None, None, None, False, 'int'),
        (('--page-size',), 'page_size', 512, None, None, None, False, 'int'),
        (('--protocol',), 'protocol', 'predictive', ('stache', 'predictive', 'write-update'), None, None, False, None),
        (('--unoptimized',), 'unoptimized', False, None, 0, True, False, None),
    ],
    'reproduce': [
        (('--corpus',), 'corpus', None, None, None, None, False, None),
        (('--jobs',), 'jobs', 1, None, None, None, False, 'int'),
        (('--json',), 'json', None, None, None, None, False, None),
        (('--metrics-out',), 'metrics_out', None, None, None, None, False, None),
        (('--output',), 'output', 'benchmarks/results/REPORT.txt', None, None, None, False, None),
        (('--trace',), 'trace', None, None, None, None, False, None),
    ],
    'run': [
        (('--block-size',), 'block_size', 32, None, None, None, False, 'int'),
        (('--corpus',), 'corpus', None, None, None, None, False, None),
        ((), 'file', None, None, None, None, True, None),
        (('--json',), 'json', None, None, '?', '-', False, None),
        (('--metrics-out',), 'metrics_out', None, None, None, None, False, None),
        (('--nodes',), 'nodes', 8, None, None, None, False, 'int'),
        (('--page-size',), 'page_size', 512, None, None, None, False, 'int'),
        (('--protocol',), 'protocol', 'predictive', ('stache', 'predictive', 'write-update'), None, None, False, None),
        (('--trace',), 'trace', None, None, None, None, False, None),
        (('--unoptimized',), 'unoptimized', False, None, 0, True, False, None),
    ],
    'sweep': [
        ((), 'app', None, ('adaptive', 'barnes', 'water'), '?', None, False, None),
        (('--axis',), 'axis', None, None, None, None, False, None),
        (('--block-size',), 'block_size', None, None, None, None, False, 'int'),
        (('--calibration',), 'calibration', None, None, None, None, False, None),
        (('--dir',), 'dir', 'benchmarks', None, None, None, False, None),
        (('--model',), 'model', False, None, 0, True, False, None),
        (('--nodes',), 'nodes', None, None, None, None, False, 'int'),
        (('--out',), 'out', None, None, None, None, False, None),
        (('--page-size',), 'page_size', None, None, None, None, False, 'int'),
        (('--protocol',), 'protocol', 'stache', ('stache', 'predictive', 'write-update'), None, None, False, None),
        (('--uncalibrated',), 'uncalibrated', False, None, 0, True, False, None),
        (('--unoptimized',), 'unoptimized', False, None, 0, True, False, None),
        (('--variant',), 'variant', 'cstar', None, None, None, False, None),
        (('-v', '--verbose'), 'verbose', False, None, 0, True, False, None),
    ],
    'verify': [
        (('--corpus',), 'corpus', None, None, None, None, False, None),
        (('--dfs',), 'dfs', 0, None, None, None, False, 'int'),
        (('--dfs-depth',), 'dfs_depth', 10, None, None, None, False, 'int'),
        (('--dfs-seeds',), 'dfs_seeds', 3, None, None, None, False, 'int'),
        (('--farm-events',), 'farm_events', None, None, None, None, False, None),
        (('--jobs',), 'jobs', 1, None, None, None, False, 'int'),
        (('--no-shrink',), 'no_shrink', False, None, 0, True, False, None),
        (('--no-traces',), 'no_traces', False, None, 0, True, False, None),
        (('--protocols',), 'protocols', None, None, None, None, False, '_protocol_list'),
        (('--regen-traces',), 'regen_traces', False, None, 0, True, False, None),
        (('--replay',), 'replay', None, None, None, None, False, 'int'),
        (('--report-out',), 'report_out', None, None, None, None, False, None),
        (('--seeds',), 'seeds', 50, None, None, None, False, 'int'),
        (('--traces',), 'traces', 'examples/traces', None, None, None, False, None),
    ],
}


def _surface(parser: argparse.ArgumentParser) -> dict:
    def verbs(p):
        return next(a.choices for a in p._actions
                    if isinstance(a, argparse._SubParsersAction))

    found = {}
    for verb, sub in verbs(parser).items():
        if verb == "corpus":
            verb, sub = "corpus doctor", verbs(sub)["doctor"]
        found[verb] = sorted(
            ((tuple(a.option_strings), a.dest, a.default,
              tuple(a.choices) if a.choices else None, a.nargs, a.const,
              a.required, a.type.__name__ if a.type else None)
             for a in sub._actions
             if not isinstance(a, argparse._HelpAction)),
            key=lambda row: row[1])
    return found


class TestParserSurface:
    """No verb, flag, default or choice drifts when options are regrouped."""

    def test_verbs(self):
        assert set(_surface(build_parser())) == set(SURFACE)

    @pytest.mark.parametrize("verb", sorted(SURFACE))
    def test_verb_arguments(self, verb):
        assert _surface(build_parser())[verb] == SURFACE[verb]
