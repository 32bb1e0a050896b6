"""The farm's headline contract: ``--jobs N`` == ``--jobs 1``, byte for byte.

Each campaign's report is canonicalized as sorted JSON of its ``to_dict``
form (which deliberately excludes wall-clock fields) and compared across
worker counts.  Dispatch order, retries and completion order must all be
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

    def test_payload_fold_equals_direct_run(self):
        # at every jobs value run_specs folds version_job payloads; the
        # fold must equal running the version directly, field for field
        from repro.apps import water
        from repro.bench.figures import WATER_CFG
        from repro.bench.harness import VersionSpec, run_specs, run_version

        spec = VersionSpec("opt", water, "predictive", True,
                           WATER_CFG.with_(block_size=32),
                           dict(n=24, iterations=2, work_scale=10.0))
        [folded] = run_specs([spec])
        assert folded.stats.to_dict() == run_version(spec).stats.to_dict()


class TestRunJobs:
    """``run_jobs`` is the one farm-or-inline decision under ``src/``."""

    @staticmethod
    def _jobs(n: int):
        from repro.farm import FarmJob
        from repro.verify.fuzz import fuzz_seed_job

        return [FarmJob(index=i, run=fuzz_seed_job,
                        params={"seed": i, "protocols": ["stache"],
                                "shrink": False})
                for i in range(n)]

    @staticmethod
    def _forbid_farm(monkeypatch):
        import repro.farm.coordinator as coordinator

        def no_farm(*args, **kwargs):
            raise AssertionError("run_farm called on the inline path")

        monkeypatch.setattr(coordinator, "run_farm", no_farm)

    @pytest.mark.parametrize("n_jobs, n_workers", [(3, 1), (1, 4)])
    def test_inline_below_two_workers_or_two_jobs(self, monkeypatch, n_jobs,
                                                  n_workers):
        from repro.farm import run_jobs

        self._forbid_farm(monkeypatch)
        jobs = list(reversed(self._jobs(n_jobs)))
        payloads = run_jobs(jobs, n_workers)
        assert [p["seed"] for p in payloads] == list(range(n_jobs))

    def test_inline_is_lazy(self, monkeypatch):
        import repro.farm.coordinator as coordinator
        from repro.farm import run_jobs

        self._forbid_farm(monkeypatch)
        ran = []
        real = coordinator.execute_job
        monkeypatch.setattr(coordinator, "execute_job",
                            lambda job: ran.append(job.index) or real(job))
        payloads = run_jobs(self._jobs(3), 1)
        assert ran == []
        next(payloads)
        assert ran == [0]

    def test_farmed_payloads_in_index_order(self):
        from repro.farm import run_jobs

        jobs = self._jobs(4)
        inline = list(run_jobs(jobs, 1))
        farmed = list(run_jobs(list(reversed(jobs)), 2))
        assert farmed == inline
