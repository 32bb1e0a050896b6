"""The work-stealing scheduler: who runs which job next.

The scheduler is deliberately transport-agnostic — it never touches a
process or a queue.  It owns the per-worker job decks produced by
:func:`repro.farm.jobs.partition_jobs` and answers one question: *worker W
is idle; what should it run?*  The coordinator
(:mod:`repro.farm.coordinator`) translates the answer into transport sends
and folds results; a future multi-host backend reuses this class unchanged
by swapping the transport underneath.

Stealing policy: an idle worker pops the **front** of its own deck
(owner side); when its deck is empty it steals from the **back** of the
richest remaining deck (classic work-stealing ends: owners and thieves
never contend for the same end).  Victim choice is deterministic — richest
deck, lowest worker id on ties — so a run's schedule is reproducible given
the same completion order.  None of this affects results: the campaign
fold is order-independent by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.farm.jobs import FarmJob, partition_jobs


@dataclass(frozen=True)
class Assignment:
    """One scheduling decision: ``job`` for ``worker``, possibly stolen."""

    worker: int
    job: FarmJob
    stolen_from: int | None = None  # owner's deck when != worker


class WorkStealingScheduler:
    """Per-worker decks with deterministic stealing and crash requeue."""

    def __init__(self, jobs: list[FarmJob], n_workers: int):
        self.n_workers = n_workers
        self._jobs = {job.index: job for job in jobs}
        if len(self._jobs) != len(jobs):
            raise ValueError("job indices must be unique")
        decks = partition_jobs(len(jobs), n_workers)
        ordered = sorted(jobs, key=lambda j: j.index)
        self._decks: list[deque[FarmJob]] = [
            deque(ordered[i] for i in deck) for deck in decks
        ]
        #: job index -> worker currently running it
        self.in_flight: dict[int, int] = {}

    # -- queries ---------------------------------------------------------------

    @property
    def queued(self) -> int:
        return sum(len(d) for d in self._decks)

    @property
    def outstanding(self) -> int:
        """Jobs not yet completed (queued + in flight)."""
        return self.queued + len(self.in_flight)

    def running_on(self, worker: int) -> list[FarmJob]:
        """The jobs currently in flight on ``worker``."""
        return [self._jobs[i] for i, w in sorted(self.in_flight.items())
                if w == worker]

    # -- scheduling ------------------------------------------------------------

    def acquire(self, worker: int) -> Assignment | None:
        """Assign the next job to idle ``worker`` (None when nothing queued).

        Own deck first (front); otherwise steal from the back of the
        richest deck (ties broken toward the lowest worker id).
        """
        own = self._decks[worker]
        if own:
            job = own.popleft()
            self.in_flight[job.index] = worker
            return Assignment(worker=worker, job=job)
        victim = max(range(self.n_workers),
                     key=lambda w: (len(self._decks[w]), -w))
        if not self._decks[victim]:
            return None
        job = self._decks[victim].pop()
        self.in_flight[job.index] = worker
        return Assignment(worker=worker, job=job, stolen_from=victim)

    def complete(self, job_index: int) -> None:
        self.in_flight.pop(job_index, None)

    def requeue(self, job: FarmJob) -> None:
        """Put a crashed worker's job back at the front of its owner deck.

        The front, so a retried job is re-dispatched before fresh work —
        retries are on the campaign's critical path.
        """
        self.in_flight.pop(job.index, None)
        self._decks[job.index % self.n_workers].appendleft(job)
