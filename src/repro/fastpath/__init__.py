"""The compiled timing path: what every simulation runs on.

``repro.fastpath`` holds the three compiled-down layers of the simulator,
each *bit-identical* in observable behaviour (RunStats, checkpoints,
dispatch order) to the straightforward implementation it replaced:

* :mod:`~repro.fastpath.calqueue` — a slotted calendar queue
  (:class:`FastEngine`) that dispatches same-timestamp batches without
  per-event heap churn or closure allocation, FIFO or — with a
  :class:`~repro.verify.interleave.TieBreakPolicy` installed — one
  policy pick per dispatch;
* :mod:`~repro.fastpath.packed` — the packed-int sharer set
  (:class:`NodeSet`; the byte-array tag table is
  :class:`repro.tempest.tags.TagTable`);
* :mod:`~repro.fastpath.passes` — a pass-group pipeline
  (analyze → specialize → schedule) that turns each phase trace into
  static dispatch state for
  :class:`~repro.tempest.machine.ReplayProcessor`, whose ``step`` loop
  avoids dict lookups and virtual calls.

:class:`~repro.tempest.machine.Machine` builds all three itself; there is
no other path under ``src/``.  The implementations these replaced — heap
engine, op-at-a-time processor, dict tag table — are the oracle the
differential suite holds this package to, and live with that suite
(``tests/oracle.py``, ``tests/fastpath/``; see ``docs/PERFORMANCE.md``).
"""

from repro.fastpath.calqueue import FastEngine
from repro.fastpath.packed import NodeSet
from repro.fastpath.passes import FastPathPipeline

__all__ = [
    "FastEngine",
    "FastPathPipeline",
    "NodeSet",
]
