"""Worker error payloads carry the full traceback.

A farmed job failure must be debuggable from the coordinator's
:class:`FarmError` alone — without re-running the campaign sequentially —
so the worker catch-all attaches ``traceback.format_exc()`` to the error
message.
"""

import pytest

from repro.farm import FarmError, FarmJob, run_farm
from repro.farm import worker as farm_worker
from repro.farm.transport import _mp_context
from repro.verify.fuzz import fuzz_seed_job


def explosive_hook(job):
    raise ValueError("synthetic job bug")


@pytest.fixture()
def explode(monkeypatch):
    monkeypatch.setattr(farm_worker, "_before_job_hook", explosive_hook)


JOB = [FarmJob(index=0, run=fuzz_seed_job,
               params={"seed": 0, "protocols": ["stache"], "shrink": False})]


def assert_debuggable(excinfo):
    message = str(excinfo.value)
    assert "ValueError: synthetic job bug" in message
    assert "Traceback (most recent call last)" in message
    assert "explosive_hook" in message  # the frames, not just the summary


@pytest.mark.skipif(_mp_context().get_start_method() != "fork",
                    reason="hook injection relies on fork inheritance")
def test_process_worker_error_payload_has_traceback(explode):
    with pytest.raises(FarmError) as excinfo:
        run_farm(JOB)
    assert_debuggable(excinfo)

