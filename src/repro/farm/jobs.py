"""Farm jobs: what one worker executes, and how jobs get their randomness.

A :class:`FarmJob` is a self-contained, transport-safe description of one
unit of campaign work — its ``params`` hold only primitives (numbers,
strings, lists, dicts), never live machines or workloads, so a job can
cross a process boundary without changing shape.  Its ``run`` is a
module-level function of the campaign that built it, which the pipe
pickles by reference; a worker calls ``job.run(job.params)``, and that
function rebuilds whatever heavy state the job needs (generated workloads
from their seed, trace workloads from their path).

Stable seed derivation makes the farm's reports byte-identical to
sequential runs: :func:`derive_seed` hashes the campaign seed together
with the job's stable identity (workload name, plan name, variant,
protocol), so a job's randomness is a pure function of *what* it is,
never of *when* or *where* it runs, and never of shared RNG state
threaded through a loop.  Running a subset of a campaign injects exactly
the faults the full campaign would have injected for those cells.
Results are folded in job-index order, whatever order they complete in.

The durable schedule corpus (:mod:`repro.corpus`) rides the same seam:
warm-start envelopes are *looked up by the coordinator* and embedded in a
job's transport-safe ``params`` (``"warm"``: protocol -> schedule
records), and harvested schedules travel back inside the ordinary result
dict.  Workers never open the corpus directory themselves, so a job's
outcome stays a pure function of its spec — the same spec warms the same
way on any worker and at any jobs count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

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
    farmed aggregate equal the sequential one.  ``run`` must be a
    module-level function (pickled by reference) that maps ``params`` to
    the job's JSON-safe result; ``params`` must stay transport-safe
    (primitives only).
    """

    index: int
    run: Callable[[dict], object]
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        return f"job#{self.index} {self.run.__name__}"

