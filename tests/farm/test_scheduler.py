"""The work-stealing scheduler's deck discipline, in isolation.

Pure data-structure tests: no transport, no processes.  The coordinator
trusts exactly the behaviours pinned here — owner pops its own deck front,
thieves take the richest deck's back, crash requeues jump the owner's
queue — so the schedule is reproducible given the same completion order.
"""

import pytest

from repro.farm import Assignment, FarmJob, WorkStealingScheduler


def job_body(params):
    return params


def make_jobs(n):
    return [FarmJob(index=i, run=job_body, params={"i": i}) for i in range(n)]


def test_owner_drains_its_own_deck_front_first():
    sched = WorkStealingScheduler(make_jobs(6), n_workers=2)
    # round-robin decks: worker0 owns 0,2,4; worker1 owns 1,3,5
    order = []
    for _ in range(3):
        a = sched.acquire(0)
        order.append(a.job.index)
        assert a.stolen_from is None
        sched.complete(a.job.index)
    assert order == [0, 2, 4]


def test_idle_worker_steals_back_of_richest_deck():
    jobs = make_jobs(6)
    sched = WorkStealingScheduler(jobs, n_workers=3)
    # drain worker 0's deck (jobs 0, 3)
    for _ in range(2):
        sched.complete(sched.acquire(0).job.index)
    # worker 1 and 2 both hold 2 jobs; tie breaks to the lowest id (1),
    # and the thief takes the BACK of the victim's deck (job 4)
    a = sched.acquire(0)
    assert a == Assignment(worker=0, job=jobs[4], stolen_from=1)


def test_acquire_returns_none_when_everything_is_in_flight():
    sched = WorkStealingScheduler(make_jobs(2), n_workers=2)
    assert sched.acquire(0) is not None
    assert sched.acquire(1) is not None
    assert sched.acquire(0) is None
    assert sched.outstanding == 2  # both still in flight
    assert sched.queued == 0


def test_requeue_puts_job_at_front_of_owner_deck():
    sched = WorkStealingScheduler(make_jobs(4), n_workers=2)
    a = sched.acquire(0)  # job 0
    sched.requeue(a.job)  # crash: back to worker 0's deck, at the front
    assert sched.in_flight == {}
    again = sched.acquire(0)
    assert again.job.index == 0  # retried before fresh work


def test_running_on_reports_in_flight_jobs_per_worker():
    sched = WorkStealingScheduler(make_jobs(4), n_workers=2)
    sched.acquire(0)
    sched.acquire(1)
    assert [j.index for j in sched.running_on(0)] == [0]
    assert [j.index for j in sched.running_on(1)] == [1]
    assert sched.running_on(0)[0].run is job_body


def test_outstanding_counts_down_to_zero():
    sched = WorkStealingScheduler(make_jobs(5), n_workers=2)
    seen = []
    while sched.outstanding:
        a = sched.acquire(0) or sched.acquire(1)
        seen.append(a.job.index)
        sched.complete(a.job.index)
    assert sorted(seen) == [0, 1, 2, 3, 4]


def test_duplicate_job_indices_rejected():
    jobs = [FarmJob(index=0, run=job_body), FarmJob(index=0, run=job_body)]
    with pytest.raises(ValueError):
        WorkStealingScheduler(jobs, n_workers=1)
