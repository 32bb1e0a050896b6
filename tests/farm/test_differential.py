"""The farm's headline contract: ``--jobs N`` == ``--jobs 1``, byte for byte.

Each campaign's report is canonicalized as sorted JSON of its ``to_dict``
form (which deliberately excludes wall-clock fields) and compared across
worker counts.  Scheduling, stealing, and completion order must all be
invisible in the aggregate — including in failing campaigns, where the
violation records themselves must match.
"""

import json

import pytest

from repro.core.factory import PROTOCOLS
from repro.faults.campaign import run_campaign
from repro.verify.fuzz import fuzz

from tests.verify.test_fuzz import DroppedAck


def canon(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


class TestVerifyDifferential:
    def test_fuzz_jobs4_equals_jobs1(self):
        seq = fuzz(seeds=6)
        par = fuzz(seeds=6, jobs=4)
        assert seq.ok and par.ok
        assert canon(par) == canon(seq)

    def test_fuzz_violations_identical_across_jobs(self, monkeypatch):
        monkeypatch.setitem(PROTOCOLS, "stache", DroppedAck)
        seq = fuzz(seeds=3, protocols=["stache"], shrink=True)
        par = fuzz(seeds=3, protocols=["stache"], shrink=True, jobs=3)
        assert not seq.ok and not par.ok
        assert canon(par) == canon(seq)
        # the farmed violation replays with the same printed command
        assert par.violations[0].report() == seq.violations[0].report()


class TestFaultsDifferential:
    def test_campaign_jobs2_equals_jobs1(self):
        kwargs = dict(seeds=1, variants=1, protocols=("stache",),
                      traces_dir=None, shrink=False)
        seq = run_campaign(**kwargs)
        par = run_campaign(jobs=2, **kwargs)
        assert seq.ok and par.ok
        assert canon(par) == canon(seq)
        assert par.runs == seq.runs

    def test_doomed_plan_failures_identical_across_jobs(self):
        from repro.faults import BUNDLED_PLANS
        from repro.faults.plan import FaultPlan

        doomed = {"doomed": FaultPlan(name="doomed", drop_rate=1.0, seed=5),
                  "delay": BUNDLED_PLANS["delay"]}
        kwargs = dict(plans=doomed, seeds=1, variants=1,
                      protocols=("stache",), traces_dir=None, shrink=True)
        seq = run_campaign(**kwargs)
        par = run_campaign(jobs=3, **kwargs)
        assert not seq.ok and not par.ok
        assert canon(par) == canon(seq)
        assert len(par.failures) == len(seq.failures)
        # scripted reproducers survive the farm round-trip intact
        assert (par.failures[0].scripted_plan.to_dict()
                == seq.failures[0].scripted_plan.to_dict())


class TestBenchDifferential:
    def test_version_specs_identical_across_jobs(self):
        from repro.apps import water
        from repro.bench.figures import WATER_CFG
        from repro.bench.harness import VersionSpec, run_specs

        kw = dict(n=24, iterations=2, work_scale=10.0)
        specs = [
            VersionSpec("opt", water, "predictive", True,
                        WATER_CFG.with_(block_size=32), kw),
            VersionSpec("unopt", water, "stache", False,
                        WATER_CFG.with_(block_size=64), kw),
        ]
        seq = run_specs(specs)
        par = run_specs(specs, jobs=2)
        assert [v.stats.to_dict() for v in par] \
            == [v.stats.to_dict() for v in seq]
        assert [v.spec.label for v in par] == ["opt", "unopt"]
