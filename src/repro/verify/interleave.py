"""Interleaving exploration: pluggable tie-break over same-timestamp events.

The engine breaks ties between events with equal timestamps in FIFO
(schedule) order, which makes runs reproducible but exercises exactly one
of the many *legal* message orders — two messages that arrive at the same
instant are semantically unordered, so a correct protocol must tolerate
every permutation.  Installing a :class:`~repro.sim.engine.TieBreakPolicy`
on the engine (``make_machine(..., policy=...)``,
:class:`~repro.sim.engine.CalendarEngine`) exposes that choice:

* :class:`FifoPolicy` — the engine's own order (always index 0);
* :class:`SeededRandomPolicy` — a seeded pseudo-random pick at every choice
  point, so one seed names one complete interleaving;
* :class:`ReplayPolicy` — follow a recorded choice list, then fall back to
  FIFO; this is what makes violation traces replayable and shrinkable, and
  what :func:`explore_dfs` runs to enumerate distinct interleavings
  systematically (bounded depth-first search over choice points, in the
  stateless-model-checking style).

Every policy records its decisions in ``choices`` and the number of ready
events it chose among in ``frontiers``; together with the workload seed this
is a complete, replayable schedule.

What a choice point is
----------------------

A *choice point* is a dispatch at which two or more queued entries share
the earliest timestamp.  The *frontier* is all of them — message
deliveries, timers, handler effects **and processor continuations**
alike, every one a step entry — in sequence-number (queue) order, and a
recorded choice is an index into that order.  An entry that
:meth:`~repro.sim.engine.CalendarEngine.cancel` removed has left the
queue, so it is never in a frontier.  A dispatch with a single queued
entry is not a choice point and records nothing.  An entry scheduled at the current timestamp by the dispatch
just made joins the frontier of the next pick; a processor that loses a
pick stays in the frontier, and one that wins executes exactly one op
while any other entry remains at its timestamp (its conservative horizon
is then that timestamp itself).

Every bundled reproducer — ``examples/traces``, the ``ReplayPolicy``
schedules in ``tests/verify``, shrunk counterexamples, the
``choices``/``frontiers`` lists in ``repro verify --report-out``
documents — was recorded against exactly this definition, so it is part
of the determinism contract.  An optimisation that lets a processor run
several local ops per dispatch (ROADMAP: hit-run batching) preserves it
as long as a run stops at the conservative horizon: under a policy the
horizon of a contended timestamp is that timestamp, so batching
degenerates to one op per dispatch precisely where choices are recorded.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from repro.sim.engine import TieBreakPolicy


class FifoPolicy(TieBreakPolicy):
    """The base engine's deterministic order: lowest sequence number first."""

    def choose(self, width: int) -> int:
        return 0


class SeededRandomPolicy(TieBreakPolicy):
    """Uniform random tie-breaks from one seed = one named interleaving."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, width: int) -> int:
        return self._rng.randrange(width)

    def describe(self) -> str:
        return f"SeededRandomPolicy(seed={self.seed})"


class ReplayPolicy(TieBreakPolicy):
    """Follow a recorded choice prefix, then fall back to FIFO.

    Choices beyond the current frontier size are clamped, so a schedule
    recorded against one run stays applicable to slightly perturbed reruns
    (this is what lets shrinking cut the schedule down to a prefix).
    """

    def __init__(self, schedule: list[int]) -> None:
        super().__init__()
        self.schedule = list(schedule)
        self._cursor = 0

    def choose(self, width: int) -> int:
        if self._cursor < len(self.schedule):
            i = min(self.schedule[self._cursor], width - 1)
            self._cursor += 1
            return i
        return 0

    def describe(self) -> str:
        return f"ReplayPolicy({self.schedule})"


def explore_dfs(
    run: Callable[[TieBreakPolicy], object],
    max_runs: int = 64,
    max_depth: int = 12,
) -> Iterator[tuple[list[int], object]]:
    """Bounded depth-first enumeration of distinct interleavings.

    ``run(policy)`` must execute the workload from scratch under ``policy``
    and return an arbitrary result.  Yields ``(choice_prefix, result)`` per
    executed schedule.  Branching is limited to the first ``max_depth``
    choice points; at most ``max_runs`` schedules execute.  Exceptions from
    ``run`` propagate to the caller (they are the interesting outcome).
    """
    stack: list[list[int]] = [[]]
    executed = 0
    while stack and executed < max_runs:
        prefix = stack.pop()
        policy = ReplayPolicy(prefix)
        result = run(policy)
        executed += 1
        # Branch on every choice point this run passed beyond its prefix:
        # sibling schedules take alternative indices at that point.
        for pos in range(len(prefix), min(len(policy.choices), max_depth)):
            width = policy.frontiers[pos]
            base = policy.choices[:pos]
            for alt in range(width - 1, 0, -1):
                if alt != policy.choices[pos]:
                    stack.append(base + [alt])
        yield policy.choices[:], result
