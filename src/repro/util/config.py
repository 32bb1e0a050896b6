"""Machine and cost-model configuration.

All timing in the simulator is expressed in abstract *cycles*.  The default
constants are calibrated to the Blizzard-on-CM-5 platform the paper measured:
a 33 MHz SPARC node where an average remote shared-data access costs roughly
200 microseconds (~6,600 cycles) while a local cache hit costs one cycle, and
where the fat-tree network favors small messages.  Absolute numbers are not
the point (see DESIGN.md); the ratios — remote access several thousand times
a local hit, software handler occupancy per message, cheap hardware barriers
— are what drive the paper's effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.util.errors import ConfigError


#: recognized sweep grid axes, in canonical (document and CLI) order:
#: "protocol" selects the coherence protocol, the rest are
#: :class:`MachineConfig` fields
SWEEP_AXES = ("protocol", "n_nodes", "block_size", "msg_latency",
              "per_byte_cost", "fault_cost", "handler_cost")


#: the :class:`MachineConfig` fields that are cycle costs
_COST_FIELDS = ("cache_hit_cost", "fault_cost", "handler_cost", "msg_latency",
                "per_byte_cost", "bulk_msg_overhead", "presend_entry_cost",
                "barrier_latency", "directory_lookup_cost")


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of the simulated distributed-shared-memory machine.

    Attributes
    ----------
    n_nodes:
        Number of processing nodes (the paper uses 32; scaled runs use fewer).
    block_size:
        Coherence granularity in bytes.  Tempest supports fine-grain access
        control at 32-128 byte blocks; the paper sweeps 32 to 1024 bytes.
    page_size:
        Allocation granularity for home assignment (Stache distributes data
        at page granularity).
    cache_hit_cost:
        Cycles for an access whose block tag already permits it.
    fault_cost:
        Cycles to detect an access fault and vector it to the user-level
        handler (Blizzard's fine-grain trap path).
    handler_cost:
        Protocol-handler occupancy, in cycles, charged per protocol message
        received at a node.
    msg_latency:
        Network flight time plus injection overhead per message, cycles.
    per_byte_cost:
        Additional network cycles per payload byte (bandwidth term).
    bulk_msg_overhead:
        Fixed startup cost of a coalesced bulk message in the pre-send phase.
        Bulk transfers amortize this over many blocks.
    presend_entry_cost:
        Home-side cycles to walk one schedule entry during pre-send.
    barrier_latency:
        Cost of a global barrier (the CM-5 has a hardware barrier network,
        so this is small).
    directory_lookup_cost:
        Home-side cycles to consult/update directory state per request.
    """

    n_nodes: int = 8
    block_size: int = 32
    page_size: int = 4096
    cache_hit_cost: int = 1
    fault_cost: int = 100
    handler_cost: int = 150
    msg_latency: int = 1000
    per_byte_cost: float = 0.5
    bulk_msg_overhead: int = 400
    presend_entry_cost: int = 20
    barrier_latency: int = 150
    directory_lookup_cost: int = 25

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not _is_power_of_two(self.block_size):
            raise ConfigError(f"block_size must be a power of two, got {self.block_size}")
        if not _is_power_of_two(self.page_size):
            raise ConfigError(f"page_size must be a power of two, got {self.page_size}")
        if self.page_size < self.block_size:
            raise ConfigError(
                f"page_size ({self.page_size}) must be >= block_size ({self.block_size})"
            )
        for name in _COST_FIELDS:
            # NaN fails both comparisons
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(
                    f"{name} must be finite and non-negative, got "
                    f"{getattr(self, name)!r}")

    # -- derived quantities -------------------------------------------------

    def message_cost(self, payload_bytes: int = 0) -> float:
        """Network cost of a single (small) protocol message."""
        return self.msg_latency + self.per_byte_cost * payload_bytes

    def bulk_message_cost(self, payload_bytes: int) -> float:
        """Network cost of one coalesced bulk data message."""
        return self.bulk_msg_overhead + self.msg_latency + self.per_byte_cost * payload_bytes

    def blocks_per_page(self) -> int:
        return self.page_size // self.block_size

    def with_(self, **kwargs) -> "MachineConfig":
        """Return a copy with selected fields replaced (frozen dataclass)."""
        return replace(self, **kwargs)


#: The configuration used for paper-shaped experiments: a 32-node machine
#: as in the paper's CM-5 runs (benchmarks scale ``n_nodes`` down further
#: when they also scale the problem size).
CM5_DEFAULTS = MachineConfig(n_nodes=32)
