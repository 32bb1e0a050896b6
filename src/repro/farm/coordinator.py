"""The farm coordinator: dispatch, crash retry, preemption, and collection.

:func:`run_farm` drives a :class:`~repro.farm.scheduler.WorkStealingScheduler`
over a transport (:mod:`repro.farm.transport`): it keeps every worker busy,
collects per-job payloads as they stream in, and handles the failure
modes —

* **worker crash** — detected by liveness (process check locally, the
  heartbeat watchdog over sockets) on a wall-clock cadence *independent
  of message arrival*, so a dead worker's jobs are reclaimed even while
  other workers keep the message stream busy.  The lost jobs are requeued
  at the front of their owner decks (retries are on the critical path)
  with an ``attempt`` counter in their params; after ``max_retries``
  crash-retries of the same job the farm raises
  :class:`~repro.farm.transport.FarmError`.  If the job had streamed a
  checkpoint envelope, the retry resumes from it instead of from scratch
  — on whatever worker picks it up, local or remote (checkpoint
  migration).  A transport that can conjure replacement processes
  (``can_respawn``, the local pool) gets the worker respawned under the
  same id; one that cannot (sockets — the coordinator can't start
  processes on other machines) has the slot freed for a reconnecting
  agent and the worker id parked until one arrives.
* **expired leases** — a remote transport may report jobs whose leases
  lapsed (``reclaim_expired``) even though the worker still looks alive:
  the dispatch frame was lost, or the agent's heartbeats stopped naming
  the job.  Reclaimed jobs are requeued exactly like crash losses.
* **preemption** — requested through a :class:`FarmController`.  A
  preemptible job checkpoints at its next quiescent boundary
  (:mod:`repro.farm.preempt`) and comes back as a resume envelope; the
  coordinator requeues the job with the envelope attached, and whichever
  worker picks it up finishes the run bit-identically.
* **total remote loss** — when a non-respawnable transport has *every*
  worker down for longer than its ``degrade_after``, the farm degrades
  gracefully: the remote transport is shut down and the remaining jobs
  (with their streamed envelopes — checkpoint migration again) finish on
  a local transport with ``fallback_local`` workers.  The report is
  unchanged; ``FarmResult.degraded`` records that it happened.

Stale deliveries ("ghosts" — a result for a job the coordinator already
reclaimed and handed to someone else) are fenced twice: remote transports
drop messages whose lease/incarnation stamps don't match
(:mod:`repro.farm.remote`), and the coordinator itself ignores any
job-scoped message from a worker that is not the job's recorded runner.
Pure jobs make surviving duplicates harmless; the fences make them
invisible.

Determinism contract: the coordinator never interprets payloads — callers
fold ``FarmResult.results`` in job-index order with the same pure fold the
sequential path uses, so scheduling, stealing, retries, reclaims, and
preemptions are all invisible in the aggregated report.

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


class FarmController:
    """Caller-side preemption valve.

    ``controller.preempt(job_index)`` asks the farm to checkpoint-preempt
    that job the next time it is (or already is) running; the request is
    consumed by the first preemption or completion of the job.
    """

    def __init__(self) -> None:
        self.requests: set[int] = set()

    def preempt(self, job_index: int) -> None:
        self.requests.add(job_index)


@dataclass
class FarmResult:
    """What one farm run produced, plus its scheduling footprint."""

    results: dict[int, object] = field(default_factory=dict)
    workers: int = 0
    steals: int = 0
    retries: int = 0
    preemptions: int = 0
    worker_crashes: int = 0
    lease_reclaims: int = 0
    degraded: bool = False


class _DegradeToLocal(Exception):
    """Internal: every remote worker is lost; finish on a local pool."""


def run_farm(
    jobs: list[FarmJob],
    n_workers: int = 2,
    *,
    tracer=None,
    progress=None,
    max_retries: int = 2,
    transport=None,
    controller: FarmController | None = None,
    poll_interval: float = 0.2,
    liveness_interval: float = 0.5,
) -> FarmResult:
    """Execute ``jobs`` on a worker pool; returns every job's payload.

    ``n_workers`` is clamped to the job count; one worker uses the inline
    (same-process) transport.  ``transport`` overrides the backend — the
    multi-host seam.  ``tracer`` receives ``farm.*`` lifecycle events;
    ``progress`` gets a coarse completion line every ~10% of jobs.
    ``liveness_interval`` is the wall-clock cadence of crash/lease
    sweeps, independent of message arrival.
    """
    jobs = list(jobs)
    result = FarmResult()
    if not jobs:
        return result
    if transport is None:
        n = max(1, min(n_workers, len(jobs)))
        transport = LocalProcessTransport(n) if n > 1 else InlineTransport()
    n_workers = transport.n_workers
    # a chaotic transport turns lease reclaims into crash-retries by
    # design; honor its larger suggested budget
    max_retries = max(max_retries,
                      getattr(transport, "suggested_max_retries", 0))
    can_respawn = getattr(transport, "can_respawn", True)
    result.workers = n_workers
    scheduler = WorkStealingScheduler(jobs, n_workers)
    total = len(jobs)
    report_every = max(1, total // 10)
    t0 = time.perf_counter()

    def emit(kind: str, node: int | None = None, **attrs) -> None:
        if tracer is not None and tracer.enabled:
            tracer.emit(kind, time.perf_counter() - t0, node=node, **attrs)

    idle: set[int] = set(range(n_workers))
    down: set[int] = set()  # non-respawnable slots awaiting a (re)connect
    all_down_since: float | None = None
    attempts: dict[int, int] = {}
    envelopes: dict[int, dict] = {}  # job index -> last streamed checkpoint
    pending_preempt: dict[int, int] = {}  # worker -> job it should preempt

    def dispatch() -> None:
        for wid in sorted(idle):
            assignment = scheduler.acquire(wid)
            if assignment is None:
                continue
            idle.discard(wid)
            job = assignment.job
            wants_preempt = (controller is not None and job.preemptible
                             and job.index in controller.requests)
            if wants_preempt:
                # arm the flag before the job starts so even a synchronous
                # (inline) worker observes it at its first checkpoint
                pending_preempt[wid] = job.index
                transport.preempt(wid)
            transport.send(wid, ("job", job))
            emit(EventKind.FARM_DISPATCH, node=wid, job=job.index,
                 job_kind=job.kind)
            if assignment.stolen_from is not None:
                result.steals += 1
                emit(EventKind.FARM_STEAL, node=wid, job=job.index,
                     victim=assignment.stolen_from)

    def clear_preempt_state(wid: int, job_index: int) -> None:
        if controller is not None:
            controller.requests.discard(job_index)
        if pending_preempt.get(wid) == job_index:
            pending_preempt.pop(wid)
            transport.clear_preempt(wid)

    def requeue(job: FarmJob, wid: int, *, resume: dict | None,
                crashed: bool) -> None:
        params = dict(job.params)
        if crashed:
            attempts[job.index] = attempts.get(job.index, 0) + 1
            if attempts[job.index] > max_retries:
                raise FarmError(
                    f"{job.describe()} lost to {attempts[job.index]} worker "
                    f"crash(es); retry budget is {max_retries}"
                )
            params["attempt"] = attempts[job.index]
            result.retries += 1
            emit(EventKind.FARM_RETRY, node=wid, job=job.index,
                 attempt=attempts[job.index])
        if resume is not None:
            params["resume"] = resume
        else:
            params.pop("resume", None)
        fresh = FarmJob(index=job.index, kind=job.kind, params=params,
                        preemptible=job.preemptible)
        scheduler.replace(fresh)
        scheduler.requeue(fresh)

    def check_liveness() -> None:
        nonlocal all_down_since
        # expired leases first: their jobs leave in_flight here, so the
        # per-worker sweep below can never requeue the same job twice
        if hasattr(transport, "reclaim_expired"):
            for wid, job_index in transport.reclaim_expired():
                if scheduler.in_flight.get(job_index) != wid:
                    continue  # already completed or reclaimed elsewhere
                result.lease_reclaims += 1
                emit(EventKind.FARM_LEASE_EXPIRE, node=wid, job=job_index)
                requeue(scheduler.job(job_index), wid,
                        resume=envelopes.get(job_index), crashed=True)
                # the worker owes us nothing anymore: without this it
                # would sit "busy" forever after a lost dispatch, and
                # enough lost dispatches would idle out the whole farm
                if (wid not in down and transport.alive(wid)
                        and not scheduler.running_on(wid)):
                    idle.add(wid)
        for wid in range(n_workers):
            if transport.alive(wid):
                if wid in down:
                    down.discard(wid)
                    emit(EventKind.FARM_WORKER_UP, node=wid, rejoined=True)
                    idle.add(wid)
                continue
            if wid in down:
                continue  # loss already handled; slot awaits an agent
            result.worker_crashes += 1
            emit(EventKind.FARM_WORKER_DOWN, node=wid, crashed=True)
            for job in scheduler.running_on(wid):
                requeue(job, wid, resume=envelopes.get(job.index),
                        crashed=True)
            pending_preempt.pop(wid, None)
            idle.discard(wid)
            # both branches free the slot; only a local pool refills it
            transport.respawn(wid)
            if can_respawn:
                emit(EventKind.FARM_WORKER_UP, node=wid, respawned=True)
                idle.add(wid)
            else:
                down.add(wid)
        if down and len(down) == n_workers:
            if all_down_since is None:
                all_down_since = time.perf_counter()
            elif (time.perf_counter() - all_down_since
                    > getattr(transport, "degrade_after", 10.0)):
                raise _DegradeToLocal()
        else:
            all_down_since = None
        dispatch()

    transport.start(worker_main)
    for wid in range(n_workers):
        emit(EventKind.FARM_WORKER_UP, node=wid)
    try:
        dispatch()
        last_liveness = time.perf_counter()
        while scheduler.outstanding > 0:
            message = transport.recv(timeout=poll_interval)
            now = time.perf_counter()
            if message is None or now - last_liveness >= liveness_interval:
                last_liveness = now
                check_liveness()
            if message is None:
                continue
            kind, wid, job_index, payload = message
            if kind in ("result", "preempted", "progress", "error"):
                if scheduler.in_flight.get(job_index) != wid:
                    continue  # ghost: the job was reclaimed from this worker
            if kind == "result":
                scheduler.complete(job_index)
                result.results[job_index] = payload
                envelopes.pop(job_index, None)
                clear_preempt_state(wid, job_index)
                emit(EventKind.FARM_DONE, node=wid, job=job_index)
                if progress and len(result.results) % report_every == 0:
                    progress(f"[farm] {len(result.results)}/{total} job(s) "
                             f"done on {n_workers} worker(s)")
                idle.add(wid)
                dispatch()
            elif kind == "preempted":
                result.preemptions += 1
                clear_preempt_state(wid, job_index)
                emit(EventKind.FARM_PREEMPT, node=wid, job=job_index)
                job = scheduler.job(job_index)
                scheduler.complete(job_index)  # off the worker; requeue next
                requeue(job, wid, resume=payload, crashed=False)
                idle.add(wid)
                dispatch()
            elif kind == "progress":
                envelopes[job_index] = payload
            elif kind == "error":
                raise FarmError(
                    f"job#{job_index} failed on worker {wid}: {payload}"
                )
            # "up"/"down" worker messages are informational; the
            # coordinator's own lifecycle events are authoritative
    except _DegradeToLocal:
        # every outstanding job: requeue popped the lost workers' jobs out
        # of in_flight back into the decks, but guard both sets anyway
        indices = set(scheduler.in_flight)
        while True:  # drain the decks (acquire never blocks)
            assignment = scheduler.acquire(0)
            if assignment is None:
                break
            indices.add(assignment.job.index)
        remaining = [_with_resume(scheduler.job(i), envelopes.get(i))
                     for i in sorted(indices)]
        transport.stop()
        fallback = getattr(transport, "fallback_local", 1)
        if fallback < 1:
            raise FarmError(
                f"all {n_workers} remote worker(s) lost and local fallback "
                f"is disabled; {len(remaining)} job(s) unfinished"
            )
        emit(EventKind.FARM_DEGRADE, remaining=len(remaining),
             fallback_workers=fallback)
        if progress:
            progress(f"[farm] all {n_workers} remote worker(s) lost; "
                     f"degrading to {fallback} local worker(s) for "
                     f"{len(remaining)} remaining job(s)")
        sub = run_farm(remaining, fallback, tracer=tracer,
                       progress=progress, max_retries=max_retries,
                       controller=controller, poll_interval=poll_interval,
                       liveness_interval=liveness_interval)
        result.results.update(sub.results)
        result.steals += sub.steals
        result.retries += sub.retries
        result.preemptions += sub.preemptions
        result.worker_crashes += sub.worker_crashes
        result.degraded = True
        return result
    finally:
        transport.stop()
        for wid in range(n_workers):
            emit(EventKind.FARM_WORKER_DOWN, node=wid)
    return result


def run_jobs(
    jobs: list[FarmJob],
    n_workers: int = 1,
    *,
    transport=None,
    tracer=None,
    progress=None,
    controller: FarmController | None = None,
):
    """Yield every job's payload in job-index order, farmed or inline.

    The one farm-or-sequential decision: ``jobs`` go through
    :func:`run_farm` when a ``transport`` is given, or when
    ``n_workers > 1`` and there are at least two jobs.  Otherwise each job
    runs in this process through :func:`execute_job`, lazily and with no
    preemption control — no transport, no ``[farm]`` progress lines.
    Callers fold the payloads with the same pure fold either way, which is
    what makes farmed reports byte-identical to sequential ones.
    """
    jobs = sorted(jobs, key=lambda job: job.index)
    if transport is None and (n_workers <= 1 or len(jobs) < 2):
        return (execute_job(job) for job in jobs)
    farm = run_farm(jobs, n_workers, tracer=tracer, progress=progress,
                    transport=transport, controller=controller)
    return (farm.results[job.index] for job in jobs)


def _with_resume(job: FarmJob, envelope: dict | None) -> FarmJob:
    """The job record a degraded farm hands to the local pool, resuming
    from the last streamed checkpoint when one exists (migration)."""
    if envelope is None:
        return job
    params = dict(job.params)
    params["resume"] = envelope
    return FarmJob(index=job.index, kind=job.kind, params=params,
                   preemptible=job.preemptible)
