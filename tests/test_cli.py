"""Tests for the command-line interface."""

import argparse
import json
import pathlib

import pytest

from repro.cli import build_parser, main

JACOBI = pathlib.Path(__file__).parent.parent / "examples/programs/jacobi.cstar"


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

    VERBS = ["run", "trace", "profile", "figure", "sweep", "reproduce",
             "faults"]

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
        assert reg.value("run.wall_cycles", app=str(JACOBI),
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
        assert main(["trace", str(JACOBI), "--nodes", "4",
                     "-o", str(out_path), "--jsonl", str(jsonl_path)]) == 0
        out = capsys.readouterr().out
        assert "event kind" in out  # the per-kind count table
        assert "VALID Chrome trace" in out
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
        assert "node.cycles" in reg.names()


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
        from repro.model import default_calibration, save_calibration
        from repro.model import validate as mv

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
# time, and the retired socket farm (``farm-worker``; ``--hosts``,
# ``--bind``, ``--port`` and ``--chaos-seed`` on verify and faults).
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
    'trace': [
        (('--block-size',), 'block_size', 32, None, None, None, False, 'int'),
        ((), 'file', None, None, None, None, True, None),
        (('--jsonl',), 'jsonl', None, None, None, None, False, None),
        (('--nodes',), 'nodes', 8, None, None, None, False, 'int'),
        (('-o', '--out'), 'out', 'trace.json', None, None, None, False, None),
        (('--page-size',), 'page_size', 512, None, None, None, False, 'int'),
        (('--protocol',), 'protocol', 'predictive', ('stache', 'predictive', 'write-update'), None, None, False, None),
        (('--unoptimized',), 'unoptimized', False, None, 0, True, False, None),
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
