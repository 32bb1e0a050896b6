"""Worker-crash handling: dead workers are respawned, their jobs retried
ahead of fresh work, and the retried campaign's aggregate is identical to
an undisturbed one.

Workers fork from the test process, so monkeypatching
``repro.farm.worker._before_job_hook`` here installs the hook in every
worker (and monkeypatching a ``repro.farm.coordinator`` constant changes
the coordinator).  The hook ``os._exit``s mid-job — a hard crash the
coordinator can only see as process death — on the job's *first* attempt
only (a marker file, created atomically by the dying worker, tells a
retry apart from it), proving one crash costs one retry, not the
campaign.
"""

import json
import os
import time

import pytest

from repro.farm import FarmError, FarmJob, run_farm
from repro.farm import coordinator
from repro.farm import worker as farm_worker
from repro.farm.transport import _mp_context
from repro.obs.events import EventKind, EventTrace
from repro.verify.fuzz import fuzz, fuzz_seed_job

pytestmark = pytest.mark.skipif(
    _mp_context().get_start_method() != "fork",
    reason="crash-hook injection relies on fork inheritance",
)


def crash_first_attempt_of(index, marker):
    def hook(job):
        if job.index != index:
            return
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return  # the retry
        os._exit(13)  # simulate a dying worker, not a job exception

    return hook


def test_crashed_job_is_retried_and_aggregate_unchanged(monkeypatch,
                                                        tmp_path):
    seq = fuzz(seeds=4)

    monkeypatch.setattr(farm_worker, "_before_job_hook",
                        crash_first_attempt_of(2, str(tmp_path / "crashed")))
    tracer = EventTrace()
    par = fuzz(seeds=4, jobs=2, tracer=tracer)

    assert json.dumps(par.to_dict(), sort_keys=True) \
        == json.dumps(seq.to_dict(), sort_keys=True)
    kinds = tracer.counts()
    assert kinds.get(EventKind.FARM_RETRY, 0) >= 1
    # the crashed worker came back: one respawn-up beyond the initial pair
    assert kinds[EventKind.FARM_WORKER_UP] >= 3


def test_repeated_crashes_exhaust_the_retry_budget(monkeypatch):
    def always_crash(job):
        if job.index == 0:
            os._exit(13)

    monkeypatch.setattr(farm_worker, "_before_job_hook", always_crash)
    monkeypatch.setattr(coordinator, "MAX_RETRIES", 1)
    monkeypatch.setattr(coordinator, "POLL_INTERVAL", 0.05)
    jobs = [FarmJob(index=i, run=fuzz_seed_job,
                    params={"seed": i, "protocols": ["stache"],
                            "shrink": False})
            for i in range(2)]
    with pytest.raises(FarmError, match="job#0 .*retry budget"):
        run_farm(jobs, n_workers=2)


def nap(params):
    time.sleep(0.1)
    return params["i"]


def test_crashed_job_is_redispatched_before_fresh_work(monkeypatch,
                                                       tmp_path):
    monkeypatch.setattr(farm_worker, "_before_job_hook",
                        crash_first_attempt_of(0, str(tmp_path / "crashed")))
    tracer = EventTrace()
    jobs = [FarmJob(index=i, run=nap, params={"i": i}) for i in range(8)]
    assert run_farm(jobs, n_workers=2, tracer=tracer) \
        == {i: i for i in range(8)}

    kinds = [event.kind for event in tracer.events]
    retried = kinds.index(EventKind.FARM_RETRY)
    assert tracer.events[retried].attrs["job"] == 0
    dispatched = [event.attrs["job"] for event in tracer.events[:retried]
                  if event.kind == EventKind.FARM_DISPATCH]
    redispatched = [event.attrs["job"] for event in tracer.events[retried:]
                    if event.kind == EventKind.FARM_DISPATCH]
    assert dispatched[0] == 0  # the head of the queue went out first
    assert redispatched[0] == 0, redispatched
    # fresh work was still queued at the crash, and all of it went out
    # after the retry
    fresh = [index for index in redispatched if index not in dispatched]
    assert fresh and redispatched[1:] == fresh


def test_duplicate_job_indices_rejected():
    jobs = [FarmJob(index=0, run=nap), FarmJob(index=0, run=nap)]
    with pytest.raises(ValueError, match="unique"):
        run_farm(jobs, n_workers=2)


def failing_job(params):
    raise RuntimeError("synthetic job failure")


def test_job_exception_fails_fast_without_retry():
    jobs = [FarmJob(index=0, run=failing_job)]
    with pytest.raises(FarmError, match="synthetic job failure"):
        run_farm(jobs, n_workers=2)
