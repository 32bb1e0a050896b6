"""Dynamic protocol verification: model checking + fuzzing.

The static audit in :mod:`repro.protocols.verify` checks transition-table
*completeness*; this package checks transition *behaviour* by execution:

* :mod:`~repro.verify.interleave` — tie-break policies over same-timestamp
  events (seeded-random and bounded-DFS schedulers), so one workload yields
  many legal message orders;
* :mod:`~repro.verify.monitor` — coherence invariants (single-writer,
  directory/cache agreement, no lost invalidations, quiescence) checked at
  every phase barrier, raising replayable :class:`CoherenceViolation`\\ s;
* :mod:`~repro.verify.workload` — seeded random fuzz sessions;
* :mod:`~repro.verify.oracle` — differential execution across protocols
  with trace-derived ground truth;
* :mod:`~repro.verify.fuzz` — the campaign driver with schedule shrinking,
  surfaced as the ``repro verify`` CLI command.
"""

from repro.verify.fuzz import (
    FuzzReport,
    ViolationRecord,
    dfs_explore_seed,
    fuzz,
    replay_seed,
    shrink_schedule,
    verify_trace_file,
)
from repro.verify.interleave import (
    FifoPolicy,
    ReplayPolicy,
    SeededRandomPolicy,
    TieBreakPolicy,
    explore_dfs,
)
from repro.verify.monitor import (
    PROFILES,
    CoherenceViolation,
    InvariantMonitor,
    InvariantProfile,
    profile_for,
)
from repro.verify.oracle import Observables, differential_check, run_workload
from repro.verify.workload import (
    ALL_PROTOCOLS,
    INVALIDATE_PROTOCOLS,
    Workload,
    expected_observables,
    generate_workload,
    make_bundled_sessions,
)

__all__ = [
    "ALL_PROTOCOLS",
    "CoherenceViolation",
    "FifoPolicy",
    "FuzzReport",
    "INVALIDATE_PROTOCOLS",
    "InvariantMonitor",
    "InvariantProfile",
    "Observables",
    "PROFILES",
    "ReplayPolicy",
    "SeededRandomPolicy",
    "TieBreakPolicy",
    "ViolationRecord",
    "Workload",
    "dfs_explore_seed",
    "differential_check",
    "expected_observables",
    "explore_dfs",
    "fuzz",
    "profile_for",
    "generate_workload",
    "make_bundled_sessions",
    "replay_seed",
    "run_workload",
    "shrink_schedule",
    "verify_trace_file",
]
