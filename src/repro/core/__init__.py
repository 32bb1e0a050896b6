"""The paper's primary contribution.

* :mod:`repro.core.schedule` — incremental communication schedules: which
  blocks were communicated in a phase, who read/wrote them, conflict
  marking, and coalescing of neighboring blocks (paper §3.3-3.4).
* :mod:`repro.core.presend` — the predictive protocol's timing-free
  decisions (schedule lifecycle, pre-send planner), shared with the model.
* :mod:`repro.core.predictive` — the predictive protocol: Stache augmented
  to record faulting requests into a schedule and to pre-send data at the
  start of subsequent executions of the same compiler-identified phase.
* :mod:`repro.core.directives` — the runtime directives the C** compiler
  places (begin/end of a potentially-repetitive parallel phase group,
  schedule flush).
"""

from repro.core.schedule import (
    EntryKind,
    ScheduleEntry,
    CommSchedule,
    coalesce_blocks,
)
from repro.core.predictive import PredictiveProtocol
from repro.core.directives import Directive, DirectiveKind
from repro.core.factory import make_machine, PROTOCOLS

__all__ = [
    "make_machine",
    "PROTOCOLS",
    "EntryKind",
    "ScheduleEntry",
    "CommSchedule",
    "coalesce_blocks",
    "PredictiveProtocol",
    "Directive",
    "DirectiveKind",
]
