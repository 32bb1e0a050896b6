"""repro.farm — the work-stealing campaign executor.

Shards verify/faults/bench campaign jobs across a worker pool with a
scheduler/transport split (:mod:`~repro.farm.scheduler` decides, the
transport moves bytes): local processes (:mod:`~repro.farm.transport`) or
remote hosts over TCP (:mod:`~repro.farm.remote` — heartbeats, leases,
incarnation fencing, checkpoint migration; chaos-tested through
:mod:`~repro.farm.chaos`).  Aggregated campaign reports are
byte-identical to sequential execution: jobs derive their randomness
from stable identity hashes (:func:`~repro.farm.jobs.derive_seed`),
results fold in job-index order, and the metrics merge algebra is
order-independent.  See docs/FARM.md.
"""

from repro.farm.chaos import DEFAULT_CHAOS_PLAN, ChaosTransport
from repro.farm.coordinator import (
    FarmController,
    FarmResult,
    run_farm,
    run_jobs,
)
from repro.farm.jobs import FarmJob, derive_seed, partition_jobs
from repro.farm.remote import HostLedger, SocketTransport, worker_agent
from repro.farm.scheduler import Assignment, WorkStealingScheduler
from repro.farm.transport import (
    FarmError,
    InlineTransport,
    LocalProcessTransport,
)

__all__ = [
    "Assignment",
    "ChaosTransport",
    "DEFAULT_CHAOS_PLAN",
    "FarmController",
    "FarmError",
    "FarmJob",
    "FarmResult",
    "HostLedger",
    "InlineTransport",
    "LocalProcessTransport",
    "SocketTransport",
    "WorkStealingScheduler",
    "derive_seed",
    "partition_jobs",
    "run_farm",
    "run_jobs",
    "worker_agent",
]
