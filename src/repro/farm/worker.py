"""Farm worker: the process entry point and the job executor.

A worker is a loop over its own pipe: run each transport-safe
:class:`~repro.farm.jobs.FarmJob` it is sent (the job carries its own
module-level function, so the farm imports no campaign code), and send
the JSON-safe result payload back on the same pipe.

Workers run under the fork start method where available, so they inherit
the parent's module state — including test monkeypatches (a sabotaged
protocol registered in ``repro.core.factory.PROTOCOLS`` is sabotaged in
every worker too) and the :data:`_before_job_hook` below, which the
crash-injection tests use to kill a worker at a precise point.
"""

from __future__ import annotations

from repro.farm.jobs import FarmJob

#: test hook: called with the job before executing it (fork-inherited, so
#: tests can monkeypatch it in the parent and have workers observe it);
#: crash tests install ``os._exit`` here to simulate a dying worker
_before_job_hook = None


def execute_job(job: FarmJob):
    """Run one job; returns its JSON-safe result payload."""
    if _before_job_hook is not None:
        _before_job_hook(job)
    return job.run(job.params)


def job_reply(wid: int, job: FarmJob) -> tuple:
    """Execute ``job`` and build the worker's reply message.

    A job-level exception is a bug, not a crash: it is reported as an
    ``error`` reply carrying the full traceback (a farmed failure must be
    debuggable without a sequential rerun), and the worker stays alive so
    the coordinator can fail fast with the message.
    """
    try:
        return ("result", wid, job.index, execute_job(job))
    except Exception as exc:
        import traceback

        return ("error", wid, job.index,
                f"{type(exc).__name__}: {exc}\n"
                f"{traceback.format_exc().rstrip()}")


def worker_main(wid: int, conn) -> None:
    """Process entry point: serve jobs from ``conn`` until a stop message.

    Neither blocking call outlives the coordinator: ``recv`` reads EOF and
    ``send`` raises once the coordinator's end of the pipe is closed, and
    the worker then just exits — there is nobody left to report to.
    """
    try:
        conn.send(("up", wid, None, None))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            conn.send(job_reply(wid, message[1]))
    except (EOFError, OSError):
        return
