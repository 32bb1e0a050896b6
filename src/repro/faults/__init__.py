"""Fault injection and resilience testing.

This package stresses the simulator's "repetitive but possibly dynamic"
regime beyond what the paper's lossless CM-5 model assumes: messages may be
dropped, duplicated, or delayed; protocol processors may stall; predictive
schedules may go stale or be corrupted outright; and whole nodes may
crash-stop and restart.  A plan arms a machine through
:meth:`FaultPlan.install`, which wires in the resilience machinery: the
injector (:mod:`repro.faults.inject`), a reliable transport
(:mod:`repro.faults.transport`), and for crashes the recovery controller
and its watchdog (:mod:`repro.faults.crash`).  Graceful schedule
degradation lives in :mod:`repro.core.predictive`.  The campaign driver
here checks, via :mod:`repro.verify`, that coherence and the memory image
survive every bundled fault plan.

The machine imports none of this: the substrate keeps only the slots a
plan fills.  Everything is pay-for-what-you-use: an inactive
:class:`FaultPlan` installs nothing, and the fault-free fast path is
byte-for-byte unchanged.
"""

from repro.faults.plan import (
    BUNDLED_PLANS,
    CRASH_PLANS,
    UNRECOVERABLE_PLAN,
    FaultEvent,
    FaultPlan,
    load_plan,
    save_plan,
)
from repro.faults.inject import FaultInjector
from repro.faults.transport import TACK, ReliableTransport
from repro.faults.campaign import (
    FaultCampaignReport,
    FaultFailure,
    run_campaign,
    shrink_events,
)

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "BUNDLED_PLANS",
    "CRASH_PLANS",
    "UNRECOVERABLE_PLAN",
    "load_plan",
    "save_plan",
    "FaultInjector",
    "ReliableTransport",
    "TACK",
    "FaultCampaignReport",
    "FaultFailure",
    "run_campaign",
    "shrink_events",
]
