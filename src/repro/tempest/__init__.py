"""Tempest-style fine-grain distributed shared memory substrate.

This package models the mechanisms Blizzard provides on the CM-5 (paper §3.1):

* a global address space carved into **regions** (allocations) and fixed-size
  **cache blocks** (32-1024 bytes),
* per-node, per-block **access-control tags** (Invalid / ReadOnly /
  ReadWrite); an access that the local tag does not permit *faults* and is
  vectored to a user-level protocol handler,
* a **home node** per block that holds directory state,
* a message-passing **network** with latency/bandwidth costs and per-node
  protocol-handler occupancy.

Policies (what to do on a fault) live in :mod:`repro.protocols`; this package
is mechanism only, mirroring the Tempest interface split.
"""

from repro.tempest.addrspace import AddressSpace, Region, HomePolicy
from repro.tempest.tags import AccessTag, TagTable
from repro.tempest.network import Network, Message
from repro.tempest.node import Node
from repro.tempest.machine import Machine, PhaseTrace
from repro.tempest.tracefile import (
    save_session,
    load_session,
    replay_session,
    record_regions,
)

__all__ = [
    "save_session",
    "load_session",
    "replay_session",
    "record_regions",
    "AddressSpace",
    "Region",
    "HomePolicy",
    "AccessTag",
    "TagTable",
    "Network",
    "Message",
    "Node",
    "Machine",
    "PhaseTrace",
]
