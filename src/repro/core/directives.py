"""Runtime directives placed by the C** compiler (paper §4).

The compiler does not identify communication *patterns*; it only identifies
*program points* where potentially repetitive communication occurs and brackets
them with directives.  At runtime:

* ``BEGIN_PHASE`` invokes the pre-send part of the predictive protocol using
  the directive's schedule, then enables schedule recording for the covered
  parallel calls;
* ``END_PHASE`` disables recording;
* ``FLUSH_SCHEDULE`` discards a schedule (used when an application's pattern
  change includes many deletions, §3.3 — exposed for programs/ablations, not
  placed automatically).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class DirectiveKind(enum.Enum):
    BEGIN_PHASE = "begin_phase"
    END_PHASE = "end_phase"
    FLUSH_SCHEDULE = "flush_schedule"


@dataclass(frozen=True)
class Directive:
    """A compiler-assigned phase-group identity.

    One ``Directive`` corresponds to one static program point; its ``id``
    keys the communication schedule that persists across dynamic executions
    of that point.
    """

    id: int
    label: str = ""

    def __repr__(self) -> str:
        lbl = f" {self.label!r}" if self.label else ""
        return f"<Directive #{self.id}{lbl}>"
