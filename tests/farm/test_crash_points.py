"""A worker killed at any point costs a retry, never a hung campaign.

Each case kills one farm worker with ``os._exit`` at one seeded point of
its life and runs the farmed campaign in a child process under a hard
wall-clock bound:

* **before-read** — the worker dies before reading a dispatch (its Nth
  read of the coordinator's channel), so a job is sent to a dead worker;
* **mid-job** — the worker dies while executing job N;
* **mid-write** — the worker dies after writing the first half of a
  fault cell's result message to its result channel.  A channel
  shared between workers is left holding a torn message (and, for a
  ``multiprocessing.Queue``, a write lock nobody will release).

A case passes when it finishes within the bound with a report equal to
the sequential one, or with a clean :class:`FarmError`.  A case that does
not finish has its whole process group killed and fails.

The kill points are monkeypatched inside the child before the farm
forks its workers, so workers inherit them and the test process itself
never runs patched code.  A marker file makes each kill happen exactly
once across all worker incarnations.
"""

import json
import multiprocessing
import os
import pickle
import random
import signal
import struct
from multiprocessing.connection import Connection

import pytest

from repro.faults.campaign import run_campaign
from repro.faults.plan import BUNDLED_PLANS
from repro.farm import FarmError
from repro.farm import worker as farm_worker
from repro.farm.transport import _mp_context
from repro.obs.events import EventKind, EventTrace
from repro.verify.fuzz import fuzz

pytestmark = pytest.mark.skipif(
    _mp_context().get_start_method() != "fork",
    reason="kill points are installed through fork inheritance",
)

#: hard wall-clock bound on one farmed campaign (seconds); an unbroken
#: run takes about one
BOUND = 45.0

SEED = 27

FUZZ = dict(seeds=6, shrink=False)
#: two fault cells (one plan x two variants), no probe
CAMPAIGN = dict(plans={"chaos": BUNDLED_PLANS["chaos"]}, seeds=1,
                variants=2, protocols=("stache",), traces_dir=None,
                shrink=False, check_unrecoverable=False)


def _claim(marker: str) -> bool:
    """True for exactly one caller across all processes."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _kill_before_read(marker: str, nth: int) -> None:
    """A worker dies instead of making its ``nth`` read of a dispatch."""
    coordinator = os.getpid()
    real = Connection._recv_bytes
    reads = [0]

    def recv_bytes(self, *args, **kwargs):
        if os.getpid() != coordinator:
            reads[0] += 1
            if reads[0] == nth and _claim(marker):
                os._exit(13)
        return real(self, *args, **kwargs)

    Connection._recv_bytes = recv_bytes


def _kill_mid_job(marker: str, index: int) -> None:
    def hook(job):
        if job.index == index and _claim(marker):
            os._exit(13)

    farm_worker._before_job_hook = hook


def _kill_mid_write(marker: str, kind: str) -> None:
    """A worker dies halfway through writing its first ``kind`` message."""
    coordinator = os.getpid()
    real = Connection._send_bytes

    def send_bytes(self, buf):
        if (os.getpid() != coordinator and pickle.loads(buf)[0] == kind
                and _claim(marker)):
            self._send(struct.pack("!i", len(buf)))
            self._send(bytes(buf[:len(buf) // 2]))
            os._exit(13)
        real(self, buf)

    Connection._send_bytes = send_bytes


def _run_case(case: str, marker: str, out: str) -> None:
    """Child process body: arm one kill point, run the farm, record the
    outcome."""
    os.setpgid(0, 0)  # the test kills the whole group on timeout
    rng = random.Random(SEED)
    tracer = EventTrace()
    try:
        if case == "before-read":
            _kill_before_read(marker, nth=rng.randint(2, 3))
            report = fuzz(jobs=2, tracer=tracer, **FUZZ)
        elif case == "mid-job":
            _kill_mid_job(marker, index=rng.randrange(FUZZ["seeds"]))
            report = fuzz(jobs=2, tracer=tracer, **FUZZ)
        else:
            _kill_mid_write(marker, kind="result")
            report = run_campaign(jobs=2, tracer=tracer, **CAMPAIGN)
        outcome = {"report": report.to_dict(), "counts": tracer.counts()}
    except FarmError as exc:
        outcome = {"farm_error": str(exc)}
    except Exception as exc:  # recorded, then failed by the test
        outcome = {"other_error": f"{type(exc).__name__}: {exc}"}
    with open(out, "w") as fh:
        json.dump(outcome, fh, sort_keys=True)


def _bounded(case: str, tmp_path) -> dict:
    marker, out = str(tmp_path / "killed"), str(tmp_path / "outcome.json")
    proc = multiprocessing.get_context("fork").Process(
        target=_run_case, args=(case, marker, out))
    proc.start()
    proc.join(BOUND)
    timed_out = proc.is_alive()
    try:
        # the child and any worker it leaves behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.join(5.0)
    assert not proc.is_alive()
    if timed_out:
        pytest.fail(f"{case}: farm still running after {BOUND:.0f} s")
    assert os.path.exists(marker), f"{case}: no worker was killed"
    with open(out) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sequential():
    return {"fuzz": fuzz(**FUZZ).to_dict(),
            "campaign": run_campaign(**CAMPAIGN).to_dict()}


@pytest.mark.parametrize("case, reference", [
    ("before-read", "fuzz"),
    ("mid-job", "fuzz"),
    ("mid-write", "campaign"),
])
def test_killed_worker_ends_in_the_sequential_report_or_a_farm_error(
        case, reference, sequential, tmp_path):
    outcome = _bounded(case, tmp_path)
    assert "other_error" not in outcome, outcome["other_error"]
    if "farm_error" in outcome:
        return  # a clean, bounded failure is an allowed ending
    assert json.dumps(outcome["report"], sort_keys=True) \
        == json.dumps(sequential[reference], sort_keys=True)
    # the dead worker was noticed and replaced
    assert outcome["counts"][EventKind.FARM_WORKER_UP] >= 3
