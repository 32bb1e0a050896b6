"""Tests for the ``repro verify`` CLI subcommand."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main


class TestVerifyCommand:
    def test_small_fuzz_run_exits_zero(self, capsys):
        rc = main(["verify", "--seeds", "4", "--no-traces"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 seed(s)" in out
        assert "no coherence violations" in out

    def test_protocol_subset(self, capsys):
        rc = main(["verify", "--seeds", "2", "--no-traces",
                   "--protocols", "stache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "protocols stache" in out

    def test_unknown_protocol_rejected(self, capsys):
        # rejected while parsing --protocols: a usage error, exit 2
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--seeds", "1", "--protocols", "mesi"])
        assert exit_.value.code == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_replay_single_seed(self, capsys):
        rc = main(["verify", "--replay", "3", "--no-traces"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 seed(s)" in out

    def test_dfs_mode(self, capsys):
        rc = main(["verify", "--seeds", "1", "--no-traces",
                   "--dfs", "4", "--dfs-seeds", "2", "--protocols", "stache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dfs [stache]" in out
        assert "interleaving(s) explored" in out

    def test_bundled_traces_replayed(self, capsys):
        rc = main(["verify", "--seeds", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("producer_consumer", "multireader_fanin",
                     "adaptive_growth"):
            assert f"trace {name}.trace" in out
        assert "monitored replay(s) — ok" in out

    def test_regen_traces_into_fresh_dir(self, tmp_path, capsys):
        rc = main(["verify", "--regen-traces", "--traces", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        written = sorted(p.name for p in tmp_path.glob("*.trace"))
        assert written == ["adaptive_growth.trace", "multireader_fanin.trace",
                           "producer_consumer.trace"]
        assert "wrote" in out

    def test_trace_with_nan_charge_fails(self, tmp_path, capsys):
        # json reads NaN; a NaN wall clock must not pass as "ok"
        src = Path(__file__).parents[2] / "examples/traces/producer_consumer.trace"
        lines = src.read_text().splitlines()
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec.get("event") == "phase":
                rec["ops"][0].insert(0, ["c", float("nan")])
                lines[i] = json.dumps(rec)
                break
        (tmp_path / "nan.trace").write_text("\n".join(lines) + "\n")
        rc = main(["verify", "--seeds", "0", "--traces", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "trace nan.trace" in out and "VIOLATION" in out
        assert "compute charge not in [0, inf)" in out

    def test_missing_traces_dir_is_skipped(self, capsys):
        rc = main(["verify", "--seeds", "1", "--traces", "does/not/exist"])
        assert rc == 0
        assert "trace " not in capsys.readouterr().out.replace("traces", "")

    def test_violations_exit_nonzero(self, capsys, monkeypatch):
        from repro.core.factory import PROTOCOLS

        from tests.verify.test_fuzz import DroppedAck

        monkeypatch.setitem(PROTOCOLS, "stache", DroppedAck)
        rc = main(["verify", "--seeds", "6", "--no-traces",
                   "--protocols", "stache"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "VIOLATION" in out
        assert "--replay" in out


class TestReproducersPinnedByBytes:
    """Every recorded schedule is an index sequence into choice points (see
    ``repro.verify.interleave``); these digests were captured on the heap
    explorer, at the commit before the calendar queue took over exploration
    (``9da8bae``), and must never move."""

    def test_fuzz_report_document(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--seeds", "60", "--dfs", "12", "--dfs-seeds",
                   "2", "--no-traces", "--report-out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b05109e1f947eb6681bebfd7b7784859aeff046f6cba574d3a64fb60bfcd36f9")
        dfs = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("dfs [")]
        assert dfs == [
            f"dfs [{protocol}] seed {seed}: 12 interleaving(s) explored — ok"
            for protocol, seed in [("stache", 0), ("stache", 1),
                                   ("write-update", 0),
                                   ("predictive", 0), ("predictive", 1)]]

    def test_dfs_schedules_and_their_statistics(self):
        from repro.verify import (ALL_PROTOCOLS, explore_dfs,
                                  generate_workload, run_workload)

        digest = hashlib.sha256()
        for protocol in ALL_PROTOCOLS:
            for seed in range(2):
                workload = generate_workload(seed)
                if protocol not in workload.protocols:
                    continue
                for choices, obs in explore_dfs(
                        lambda p: run_workload(workload, protocol, p),
                        max_runs=12, max_depth=10):
                    digest.update(json.dumps(
                        [protocol, seed, choices, obs.stats.to_dict()],
                        sort_keys=True).encode())
        assert digest.hexdigest() == (
            "52da784b88f80d738edf42abb59209015902392dcc5e20aec0dff14d7051f08a")
