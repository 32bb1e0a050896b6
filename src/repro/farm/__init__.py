"""repro.farm — the campaign executor.

Shards verify/faults/bench campaign jobs across a local worker pool:
the coordinator (:mod:`~repro.farm.coordinator`) hands the head of one
index-ordered job queue to each idle worker, over one private pipe per
worker process (:mod:`~repro.farm.transport`).  Aggregated campaign
reports are byte-identical to sequential execution: jobs derive their
randomness from stable identity hashes (:func:`~repro.farm.jobs.derive_seed`),
results fold in job-index order, and the metrics merge algebra is
order-independent.  See docs/FARM.md.
"""

from repro.farm.coordinator import run_farm, run_jobs
from repro.farm.jobs import FarmJob, derive_seed
from repro.farm.transport import FarmError, LocalProcessTransport

__all__ = [
    "FarmError",
    "FarmJob",
    "LocalProcessTransport",
    "derive_seed",
    "run_farm",
    "run_jobs",
]
