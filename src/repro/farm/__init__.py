"""repro.farm — the work-stealing campaign executor.

Shards verify/faults/bench campaign jobs across a local worker pool with a
scheduler/transport split (:mod:`~repro.farm.scheduler` decides, the
transport moves messages — :mod:`~repro.farm.transport`, one private pipe
per worker process).  Aggregated campaign reports are byte-identical to
sequential execution: jobs derive their randomness from stable identity
hashes (:func:`~repro.farm.jobs.derive_seed`), results fold in job-index
order, and the metrics merge algebra is order-independent.  See
docs/FARM.md.
"""

from repro.farm.coordinator import FarmResult, run_farm, run_jobs
from repro.farm.jobs import FarmJob, derive_seed, partition_jobs
from repro.farm.scheduler import Assignment, WorkStealingScheduler
from repro.farm.transport import (
    FarmError,
    InlineTransport,
    LocalProcessTransport,
)

__all__ = [
    "Assignment",
    "FarmError",
    "FarmJob",
    "FarmResult",
    "InlineTransport",
    "LocalProcessTransport",
    "WorkStealingScheduler",
    "derive_seed",
    "partition_jobs",
    "run_farm",
    "run_jobs",
]
