"""Interleaving exploration: pluggable tie-break over same-timestamp events.

The base :class:`~repro.sim.engine.Engine` breaks ties between events with
equal timestamps in FIFO (schedule) order, which makes runs reproducible but
exercises exactly one of the many *legal* message orders — two messages that
arrive at the same instant are semantically unordered, so a correct protocol
must tolerate every permutation.  :class:`ExplorerEngine` exposes that choice
as a :class:`TieBreakPolicy`:

* :class:`FifoPolicy` — the base engine's order (always index 0);
* :class:`SeededRandomPolicy` — a seeded pseudo-random pick at every choice
  point, so one seed names one complete interleaving;
* :class:`ReplayPolicy` — follow a recorded choice list, then fall back to
  FIFO; this is what makes violation traces replayable and shrinkable;
* :class:`DfsPolicy` — used by :func:`explore_dfs` to enumerate distinct
  interleavings systematically (bounded depth-first search over choice
  points, in the stateless-model-checking style).

Every policy records its decisions in ``choices`` and the number of ready
events it chose among in ``frontiers``; together with the workload seed this
is a complete, replayable schedule.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Iterator

from repro.sim.engine import Engine, Event


class TieBreakPolicy:
    """Decides which of several same-timestamp events dispatches first."""

    def __init__(self) -> None:
        #: index chosen at each choice point (frontier size 1 is skipped)
        self.choices: list[int] = []
        #: frontier size at each recorded choice point
        self.frontiers: list[int] = []

    def choose(self, frontier: list[Event]) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def pick(self, frontier: list[Event]) -> int:
        """Record-keeping wrapper around :meth:`choose`."""
        if len(frontier) == 1:
            return 0
        i = self.choose(frontier)
        self.choices.append(i)
        self.frontiers.append(len(frontier))
        return i

    def describe(self) -> str:
        return type(self).__name__


class FifoPolicy(TieBreakPolicy):
    """The base engine's deterministic order: lowest sequence number first."""

    def choose(self, frontier: list[Event]) -> int:
        return 0


class SeededRandomPolicy(TieBreakPolicy):
    """Uniform random tie-breaks from one seed = one named interleaving."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, frontier: list[Event]) -> int:
        return self._rng.randrange(len(frontier))

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

    def choose(self, frontier: list[Event]) -> int:
        if self._cursor < len(self.schedule):
            i = min(self.schedule[self._cursor], len(frontier) - 1)
            self._cursor += 1
            return i
        return 0

    def describe(self) -> str:
        return f"ReplayPolicy({self.schedule})"


class DfsPolicy(ReplayPolicy):
    """ReplayPolicy that keeps recording after the prefix (for DFS search)."""


class ExplorerEngine(Engine):
    """An engine whose same-timestamp dispatch order is policy-controlled.

    With :class:`FifoPolicy` it is behaviourally identical to the base
    engine.  ``default_max_events`` (see :class:`Engine`) defaults to a
    finite bound here, so a protocol bug that livelocks under an
    adversarial order is reported as a
    :class:`~repro.util.errors.SimulationError` instead of hanging the
    fuzzer.
    """

    def __init__(self, policy: TieBreakPolicy | None = None,
                 default_max_events: int | None = 2_000_000) -> None:
        super().__init__(default_max_events)
        self.policy = policy if policy is not None else FifoPolicy()

    def _next_event(self) -> Event | None:
        self._prune_cancelled_front()
        if not self._queue:
            return None
        t = self._queue[0].time
        frontier: list[Event] = []
        while self._queue and self._queue[0].time == t:
            ev = heapq.heappop(self._queue)
            if not ev.cancelled:
                frontier.append(ev)
        # heap pops arrive in (time, seq) order, so the frontier is already
        # sorted by seq — choice indices are therefore stable across replays
        i = self.policy.pick(frontier)
        chosen = frontier.pop(i)
        for ev in frontier:
            heapq.heappush(self._queue, ev)
        return chosen


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
        policy = DfsPolicy(prefix)
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
