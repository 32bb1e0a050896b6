"""Worker error payloads carry the full traceback, on every backend.

A farmed job failure must be debuggable from the coordinator's
:class:`FarmError` alone — without re-running the campaign sequentially —
so the worker catch-alls (process and inline) both attach
``traceback.format_exc()`` to the error message.
"""

import pytest

from repro.farm import FarmError, FarmJob, InlineTransport, run_farm
from repro.farm import worker as farm_worker
from repro.farm.transport import LocalProcessTransport, _mp_context


def explosive_hook(job):
    raise ValueError("synthetic job bug")


@pytest.fixture()
def explode(monkeypatch):
    monkeypatch.setattr(farm_worker, "_before_job_hook", explosive_hook)


JOB = [FarmJob(index=0, kind="fuzz-seed",
               params={"seed": 0, "protocols": ["stache"], "shrink": False})]


def assert_debuggable(excinfo):
    message = str(excinfo.value)
    assert "ValueError: synthetic job bug" in message
    assert "Traceback (most recent call last)" in message
    assert "explosive_hook" in message  # the frames, not just the summary


def test_inline_error_payload_has_traceback(explode):
    with pytest.raises(FarmError) as excinfo:
        run_farm(JOB, transport=InlineTransport())
    assert_debuggable(excinfo)


@pytest.mark.skipif(_mp_context().get_start_method() != "fork",
                    reason="hook injection relies on fork inheritance")
def test_process_worker_error_payload_has_traceback(explode):
    with pytest.raises(FarmError) as excinfo:
        run_farm(JOB * 1, transport=LocalProcessTransport(1))
    assert_debuggable(excinfo)

