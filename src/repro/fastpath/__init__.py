"""The compiled timing path: what every FIFO-ordered simulation runs on.

``repro.fastpath`` replaces the three interpreter-bound layers of the
reference simulator with compiled-down equivalents while preserving
*bit-identical* observable behaviour (RunStats, checkpoints, dispatch
order):

* :mod:`~repro.fastpath.calqueue` — a slotted calendar queue
  (:class:`FastEngine`) that dispatches same-timestamp batches without
  per-event heap churn or closure allocation;
* :mod:`~repro.fastpath.packed` — packed-int/array representations for
  sharer sets and tag tables;
* :mod:`~repro.fastpath.passes` — a pass-group pipeline
  (analyze → specialize → schedule) that turns each phase trace into
  static dispatch state for :class:`FastReplayProcessor`, whose ``step``
  loop avoids dict lookups and virtual calls.

:func:`repro.core.factory.make_machine` builds this path whenever it is not
handed another engine.  The reference path (heap
:class:`~repro.sim.engine.Engine` + :class:`~repro.tempest.machine.
ReplayProcessor`) stays in the tree for the one input the batched calendar
dispatch cannot serve — policy-driven tie-breaking under
:class:`~repro.verify.interleave.ExplorerEngine` — and as the oracle the
differential suite (``tests/fastpath/``) holds this package to (see
``docs/PERFORMANCE.md``).
"""

from repro.fastpath.calqueue import FastEngine
from repro.fastpath.packed import NodeSet, PackedTagTable
from repro.fastpath.passes import FastPathPipeline, FastReplayProcessor

__all__ = [
    "FastEngine",
    "FastPathPipeline",
    "FastReplayProcessor",
    "NodeSet",
    "PackedTagTable",
]
