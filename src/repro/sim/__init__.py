"""Discrete-event simulation core.

:class:`~repro.sim.engine.CalendarEngine` is the event-queue simulator
every machine runs on; all timing behaviour of the DSM machine (network
flights, handler occupancy, barrier waits) is expressed as step entries
queued on one engine instance.  :class:`~repro.sim.engine.Engine` is its
queue-agnostic contract.
"""

from repro.sim.engine import CalendarEngine, Engine
from repro.sim.stats import TimeCategory, NodeStats, PhaseBreakdown, RunStats

__all__ = [
    "CalendarEngine",
    "Engine",
    "TimeCategory",
    "NodeStats",
    "PhaseBreakdown",
    "RunStats",
]
