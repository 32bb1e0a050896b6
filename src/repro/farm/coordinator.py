"""The farm coordinator: dispatch, crash retry, and collection.

:func:`run_farm` drives a :class:`~repro.farm.scheduler.WorkStealingScheduler`
over a transport (:mod:`repro.farm.transport`): it keeps every worker busy,
collects per-job payloads as they stream in, and handles worker
crashes: a dead worker's channel reads EOF at once, and a wall-clock
liveness sweep *independent of message arrival* catches the rest, so a
dead worker's job is reclaimed even while other workers keep the message
stream busy.  The lost job is requeued unchanged at the front of its
owner deck (retries are on the critical path) and the worker is respawned
under the same id; after ``max_retries`` crash-retries of the same job
the farm raises :class:`~repro.farm.transport.FarmError`.

Every wait is bounded: ``recv`` waits at most ``poll_interval`` for a
message to begin, a message being read ends — whole, or with an error —
as soon as its sender does, and each worker has a private channel, so no
worker's death can block the coordinator or another worker.

Determinism contract: the coordinator never interprets payloads — callers
fold ``FarmResult.results`` in job-index order with the same pure fold the
sequential path uses, so scheduling, stealing and retries are all
invisible in the aggregated report.

Farm lifecycle events (``farm.*`` in :class:`repro.obs.events.EventKind`)
are emitted on the caller's tracer with host-relative timestamps and the
worker id as the node, so ``repro trace``-style timelines cover parallel
campaigns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.farm.jobs import FarmJob
from repro.farm.scheduler import WorkStealingScheduler
from repro.farm.transport import (
    FarmError,
    InlineTransport,
    LocalProcessTransport,
)
from repro.farm.worker import execute_job, worker_main
from repro.obs.events import EventKind


@dataclass
class FarmResult:
    """What one farm run produced, plus its scheduling footprint."""

    results: dict[int, object] = field(default_factory=dict)
    workers: int = 0
    steals: int = 0
    retries: int = 0
    worker_crashes: int = 0


def run_farm(
    jobs: list[FarmJob],
    n_workers: int = 2,
    *,
    tracer=None,
    progress=None,
    max_retries: int = 2,
    transport=None,
    poll_interval: float = 0.2,
    liveness_interval: float = 0.5,
) -> FarmResult:
    """Execute ``jobs`` on a worker pool; returns every job's payload.

    ``n_workers`` is clamped to the job count; one worker uses the inline
    (same-process) transport.  ``transport`` overrides the backend.
    ``tracer`` receives ``farm.*`` lifecycle events; ``progress`` gets a
    coarse completion line every ~10% of jobs.  ``liveness_interval`` is
    the wall-clock cadence of crash sweeps, independent of message
    arrival.
    """
    jobs = list(jobs)
    result = FarmResult()
    if not jobs:
        return result
    if transport is None:
        n = max(1, min(n_workers, len(jobs)))
        transport = LocalProcessTransport(n) if n > 1 else InlineTransport()
    n_workers = transport.n_workers
    result.workers = n_workers
    scheduler = WorkStealingScheduler(jobs, n_workers)
    total = len(jobs)
    report_every = max(1, total // 10)
    t0 = time.perf_counter()

    def emit(kind: str, node: int | None = None, **attrs) -> None:
        if tracer is not None and tracer.enabled:
            tracer.emit(kind, time.perf_counter() - t0, node=node, **attrs)

    idle: set[int] = set(range(n_workers))
    attempts: dict[int, int] = {}

    def dispatch() -> None:
        for wid in sorted(idle):
            assignment = scheduler.acquire(wid)
            if assignment is None:
                continue
            idle.discard(wid)
            job = assignment.job
            # ends as soon as the worker dies (a broken pipe marks it dead)
            transport.send(wid, ("job", job))
            emit(EventKind.FARM_DISPATCH, node=wid, job=job.index,
                 job_kind=job.kind)
            if assignment.stolen_from is not None:
                result.steals += 1
                emit(EventKind.FARM_STEAL, node=wid, job=job.index,
                     victim=assignment.stolen_from)

    def retry(job: FarmJob, wid: int) -> None:
        """Requeue a crashed worker's job, counted against
        ``max_retries``."""
        attempts[job.index] = attempts.get(job.index, 0) + 1
        if attempts[job.index] > max_retries:
            raise FarmError(
                f"{job.describe()} lost to {attempts[job.index]} worker "
                f"crash(es); retry budget is {max_retries}"
            )
        result.retries += 1
        emit(EventKind.FARM_RETRY, node=wid, job=job.index,
             attempt=attempts[job.index])
        scheduler.requeue(job)

    def check_liveness() -> None:
        for wid in range(n_workers):
            if transport.alive(wid):
                continue
            result.worker_crashes += 1
            emit(EventKind.FARM_WORKER_DOWN, node=wid, crashed=True)
            for job in scheduler.running_on(wid):
                retry(job, wid)
            transport.respawn(wid)
            emit(EventKind.FARM_WORKER_UP, node=wid, respawned=True)
            idle.add(wid)
        dispatch()

    transport.start(worker_main)
    for wid in range(n_workers):
        emit(EventKind.FARM_WORKER_UP, node=wid)
    try:
        dispatch()
        last_liveness = time.perf_counter()
        while scheduler.outstanding > 0:
            # bounded by poll_interval; None when only a dead worker's
            # channel was ready, so the sweep below reclaims it at once
            message = transport.recv(timeout=poll_interval)
            now = time.perf_counter()
            if message is None or now - last_liveness >= liveness_interval:
                last_liveness = now
                check_liveness()
            if message is None:
                continue
            kind, wid, job_index, payload = message
            if kind == "result":
                scheduler.complete(job_index)
                result.results[job_index] = payload
                emit(EventKind.FARM_DONE, node=wid, job=job_index)
                if progress and len(result.results) % report_every == 0:
                    progress(f"[farm] {len(result.results)}/{total} job(s) "
                             f"done on {n_workers} worker(s)")
                idle.add(wid)
                dispatch()
            elif kind == "error":
                raise FarmError(
                    f"job#{job_index} failed on worker {wid}: {payload}"
                )
            # "up" is informational; the coordinator's own lifecycle
            # events are authoritative
    finally:
        transport.stop()  # bounded by the transport's join timeouts
        for wid in range(n_workers):
            emit(EventKind.FARM_WORKER_DOWN, node=wid)
    return result


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
    farm = run_farm(jobs, n_workers, tracer=tracer, progress=progress)
    return (farm.results[job.index] for job in jobs)

