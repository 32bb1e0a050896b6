"""Farm worker: the process entry point and the job dispatch table.

A worker is a loop over its job queue: rebuild the heavy state each
transport-safe :class:`~repro.farm.jobs.FarmJob` describes, execute it
through the dispatch table in :func:`execute_job`, and put the JSON-safe
result payload on the shared result queue.  Domain modules are imported
lazily inside the dispatch arms so importing this module (which the
transports do) never drags in the whole simulator.

Workers run under the fork start method where available, so they inherit
the parent's module state — including test monkeypatches (a sabotaged
protocol registered in ``repro.core.factory.PROTOCOLS`` is sabotaged in
every worker too) and the :data:`_before_job_hook` below, which the
crash-injection tests use to kill a worker at a precise point.
"""

from __future__ import annotations

from repro.farm.jobs import FarmJob
from repro.farm.transport import FarmError

#: test hook: called with the job before executing it (fork-inherited, so
#: tests can monkeypatch it in the parent and have workers observe it);
#: crash tests install ``os._exit`` here to simulate a dying worker
_before_job_hook = None


class WorkerControl:
    """Per-job preemption/streaming context inside a process worker."""

    def __init__(self, wid: int, job: FarmJob, result_q, preempt_flag):
        self._wid = wid
        self._job = job
        self._result_q = result_q
        self._preempt_flag = preempt_flag

    def should_preempt(self) -> bool:
        return self._preempt_flag.is_set()

    def stream(self, envelope) -> None:
        """Ship a checkpoint envelope upstream (crash-resume insurance)."""
        self._result_q.put(("progress", self._wid, self._job.index, envelope))


def execute_job(job: FarmJob, control=None):
    """Run one job by kind; returns its JSON-safe result payload.

    Preemptible jobs may instead return ``("preempted", envelope)`` when
    ``control`` reports a preemption request at a checkpointable boundary.
    """
    if _before_job_hook is not None:
        _before_job_hook(job)
    if job.kind == "fuzz-seed":
        from repro.verify.fuzz import fuzz_seed_job

        return fuzz_seed_job(job.params)
    if job.kind == "fault-cell":
        from repro.faults.campaign import run_fault_cell

        return run_fault_cell(job.params,
                              control=control if job.preemptible else None)
    if job.kind == "fault-probe":
        from repro.faults.campaign import run_fault_probe

        return run_fault_probe(job.params)
    if job.kind == "bench-version":
        from repro.bench.harness import version_job

        return version_job(job.params)
    raise FarmError(f"unknown farm job kind {job.kind!r}")


def worker_main(wid: int, job_q, result_q, preempt_flag) -> None:
    """Process entry point: drain the job queue until a stop message."""
    result_q.put(("up", wid, None, None))
    while True:
        message = job_q.get()
        if message[0] == "stop":
            break
        job: FarmJob = message[1]
        control = WorkerControl(wid, job, result_q, preempt_flag)
        try:
            payload = execute_job(job, control)
        except Exception as exc:
            # a job-level exception is a bug, not a crash: report it (with
            # the full traceback — a farmed failure must be debuggable
            # without a sequential rerun) and stay alive so the
            # coordinator can fail fast with the message
            import traceback

            result_q.put(("error", wid, job.index,
                          f"{type(exc).__name__}: {exc}\n"
                          f"{traceback.format_exc().rstrip()}"))
            continue
        if isinstance(payload, tuple) and payload and payload[0] == "preempted":
            result_q.put(("preempted", wid, job.index, payload[1]))
        else:
            result_q.put(("result", wid, job.index, payload))
    result_q.put(("down", wid, None, None))
