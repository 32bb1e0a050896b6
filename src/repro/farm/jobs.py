"""Farm jobs: what one worker executes, and how jobs get their randomness.

A :class:`FarmJob` is a self-contained, transport-safe description of one
unit of campaign work — its ``params`` hold only primitives (numbers,
strings, lists, dicts), never live machines or workloads, so a job can
cross a process boundary today and a host boundary later without changing
shape.  Workers resolve the ``kind`` through the dispatch table in
:mod:`repro.farm.worker` and rebuild whatever heavy state the job needs
(generated workloads from their seed, trace workloads from their path).

Two properties make the farm's reports byte-identical to sequential runs:

* **stable seed derivation** — :func:`derive_seed` hashes the campaign
  seed together with the job's stable identity (workload name, plan name,
  variant, protocol), so a job's randomness is a pure function of *what*
  it is, never of *when* or *where* it runs, and never of shared RNG
  state threaded through a loop.  Running a subset of a campaign injects
  exactly the faults the full campaign would have injected for those
  cells.
* **deterministic partitioning** — :func:`partition_jobs` deals jobs into
  per-worker decks round-robin; the decks are disjoint, complete, and a
  pure function of ``(n_jobs, n_workers)`` (Hypothesis-tested in
  ``tests/farm/test_partition.py``).  Work stealing then rebalances the
  decks at run time without affecting results, because results are folded
  in job-index order regardless of completion order.

The durable schedule corpus (:mod:`repro.corpus`) rides the same seam:
warm-start envelopes are *looked up by the coordinator* and embedded in a
job's transport-safe ``params`` (``"warm"``: protocol -> schedule
records), and harvested schedules travel back inside the ordinary result
dict.  Workers never open the corpus directory themselves, so a job's
outcome stays a pure function of its spec — the same spec warms the same
way on any worker, any transport, any jobs count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

#: derive_seed output range: 63 bits keeps seeds inside Python ints that
#: random.Random and json both round-trip exactly
_SEED_BITS = 63


def derive_seed(campaign_seed: int, *identity) -> int:
    """A stable 63-bit seed for one job, from the campaign seed + identity.

    ``identity`` is the job's stable coordinates — e.g. ``("seed0",
    "chaos", 2, "stache")`` for workload seed0 x plan chaos x variant 2 x
    protocol stache.  The derivation is a SHA-256 hash, so distinct
    identities get independent streams (no additive collisions between
    axes, and plans that share a base seed no longer share injection
    streams) and the result is identical on every host, Python version,
    and worker — the prerequisite for order-independent sharding.
    """
    material = repr((int(campaign_seed),) + tuple(identity)).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> (64 - _SEED_BITS)


@dataclass(frozen=True)
class FarmJob:
    """One schedulable unit of campaign work.

    ``index`` is the job's position in the campaign's canonical sequential
    order — results are folded by ascending index, which is what makes the
    farmed aggregate equal the sequential one.  ``params`` must stay
    transport-safe (primitives only).
    """

    index: int
    kind: str
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        return f"job#{self.index} {self.kind}"


def partition_jobs(n_jobs: int, n_workers: int) -> list[list[int]]:
    """Deal job indices ``0..n_jobs-1`` into ``n_workers`` decks, round-robin.

    The decks are **disjoint** (no index appears twice), **complete**
    (every index appears), **deterministic** (a pure function of the two
    counts), and balanced to within one job.  Worker ``w`` owns deck ``w``;
    an idle worker steals from the richest remaining deck (see
    :mod:`repro.farm.scheduler`).
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    decks: list[list[int]] = [[] for _ in range(n_workers)]
    for index in range(n_jobs):
        decks[index % n_workers].append(index)
    return decks
