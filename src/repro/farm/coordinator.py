"""The farm coordinator: dispatch, crash retry, and collection.

:func:`run_farm` holds the campaign's jobs in one queue, in index order,
and hands the head of it to each idle worker of a
:class:`~repro.farm.transport.LocalProcessTransport` pool, so no worker
sits idle while a job is queued.  It collects per-job payloads as they
stream in and handles worker crashes: a dead worker's channel reads EOF
at once, and a wall-clock liveness sweep *independent of message
arrival* catches the rest, so a dead worker's job is reclaimed even
while other workers keep the message stream busy.  The lost job goes
back unchanged to the head of the queue (retries run before fresh work:
they are on the critical path) and the worker is respawned under the
same id; after :data:`MAX_RETRIES` crash-retries of the same job the
farm raises :class:`~repro.farm.transport.FarmError`.

Every wait is bounded: ``recv`` waits at most :data:`POLL_INTERVAL` for
a message to begin, a message being read ends — whole, or with an error
— as soon as its sender does, and each worker has a private channel, so
no worker's death can block the coordinator or another worker.

Determinism contract: the coordinator never interprets payloads — callers
fold them in job-index order with the same pure fold the sequential path
uses, so dispatch order and retries are invisible in the aggregated
report.

Farm lifecycle events (``farm.*`` in :class:`repro.obs.events.EventKind`)
are emitted on the caller's tracer with host-relative timestamps and the
worker id as the node, so ``repro run --trace``-style timelines cover
parallel campaigns.
"""

from __future__ import annotations

import time
from collections import deque

from repro.farm.jobs import FarmJob
from repro.farm.transport import FarmError, LocalProcessTransport
from repro.farm.worker import execute_job, worker_main
from repro.obs.events import EventKind

#: crash-retries one job may take before the farm gives up on it
MAX_RETRIES = 2
#: seconds one ``recv`` waits for a worker message to begin
POLL_INTERVAL = 0.2
#: seconds between crash sweeps, independent of message arrival
LIVENESS_INTERVAL = 0.5


def run_farm(
    jobs: list[FarmJob],
    n_workers: int = 2,
    *,
    tracer=None,
    progress=None,
) -> dict[int, object]:
    """Execute ``jobs`` on local worker processes; returns every job's
    payload keyed by job index.

    ``n_workers`` is clamped to the job count.  ``tracer`` receives
    ``farm.*`` lifecycle events; ``progress`` gets a coarse completion
    line every ~10% of jobs.
    """
    queue = deque(sorted(jobs, key=lambda job: job.index))
    if len({job.index for job in queue}) != len(queue):
        raise ValueError("job indices must be unique")
    if not queue:
        return {}
    total = len(queue)
    n_workers = max(1, min(n_workers, total))
    transport = LocalProcessTransport(n_workers)
    report_every = max(1, total // 10)
    t0 = time.perf_counter()

    def emit(kind: str, node: int | None = None, **attrs) -> None:
        if tracer is not None and tracer.enabled:
            tracer.emit(kind, time.perf_counter() - t0, node=node, **attrs)

    results: dict[int, object] = {}
    # worker id -> the job it is running; a worker not in it is idle
    running: dict[int, FarmJob] = {}
    attempts: dict[int, int] = {}

    def dispatch() -> None:
        for wid in range(n_workers):
            if not queue:
                return
            if wid in running:
                continue
            job = running[wid] = queue.popleft()
            # ends as soon as the worker dies (a broken pipe marks it dead)
            transport.send(wid, ("job", job))
            emit(EventKind.FARM_DISPATCH, node=wid, job=job.index,
                 job_fn=job.run.__name__)

    def retry(job: FarmJob, wid: int) -> None:
        """Put a crashed worker's job back at the head of the queue,
        counted against :data:`MAX_RETRIES`."""
        attempts[job.index] = attempts.get(job.index, 0) + 1
        if attempts[job.index] > MAX_RETRIES:
            raise FarmError(
                f"{job.describe()} lost to {attempts[job.index]} worker "
                f"crash(es); retry budget is {MAX_RETRIES}"
            )
        emit(EventKind.FARM_RETRY, node=wid, job=job.index,
             attempt=attempts[job.index])
        queue.appendleft(job)

    def check_liveness() -> None:
        for wid in range(n_workers):
            if transport.alive(wid):
                continue
            emit(EventKind.FARM_WORKER_DOWN, node=wid, crashed=True)
            if wid in running:
                retry(running.pop(wid), wid)
            transport.respawn(wid)
            emit(EventKind.FARM_WORKER_UP, node=wid, respawned=True)
        dispatch()

    transport.start(worker_main)
    for wid in range(n_workers):
        emit(EventKind.FARM_WORKER_UP, node=wid)
    try:
        dispatch()
        last_liveness = time.perf_counter()
        while queue or running:
            # bounded by POLL_INTERVAL; None when only a dead worker's
            # channel was ready, so the sweep below reclaims it at once
            message = transport.recv(timeout=POLL_INTERVAL)
            if message is not None:
                kind, wid, job_index, payload = message
                if kind == "error":
                    raise FarmError(
                        f"job#{job_index} failed on worker {wid}: {payload}"
                    )
                if kind == "result":
                    del running[wid]
                    results[job_index] = payload
                    emit(EventKind.FARM_DONE, node=wid, job=job_index)
                    if progress and len(results) % report_every == 0:
                        progress(f"[farm] {len(results)}/{total} job(s) "
                                 f"done on {n_workers} worker(s)")
                    dispatch()
                # "up" is informational; the coordinator's own lifecycle
                # events are authoritative
            # the sweep follows the fold, so it never retries a job whose
            # result is already in hand
            now = time.perf_counter()
            if message is None or now - last_liveness >= LIVENESS_INTERVAL:
                last_liveness = now
                check_liveness()
    finally:
        transport.stop()  # bounded by the transport's join timeouts
        for wid in range(n_workers):
            emit(EventKind.FARM_WORKER_DOWN, node=wid)
    return results


def run_jobs(
    jobs: list[FarmJob],
    n_workers: int = 1,
    *,
    tracer=None,
    progress=None,
):
    """Yield every job's payload in job-index order, farmed or inline.

    The one farm-or-sequential decision: ``jobs`` go through
    :func:`run_farm` when ``n_workers > 1`` and there are at least two
    jobs.  Otherwise each job runs in this process through
    :func:`execute_job`, lazily — no transport, no ``[farm]`` progress
    lines.  Callers fold the payloads with the same pure fold either way,
    which is what makes farmed reports byte-identical to sequential ones.
    """
    jobs = sorted(jobs, key=lambda job: job.index)
    if n_workers <= 1 or len(jobs) < 2:
        return (execute_job(job) for job in jobs)
    results = run_farm(jobs, n_workers, tracer=tracer, progress=progress)
    return (results[job.index] for job in jobs)

