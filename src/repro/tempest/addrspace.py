"""The simulated global address space.

Allocations ("regions") are page-aligned so a cache block never spans two
regions.  Every block has a **home node**; Stache distributes shared data at
page granularity (paper §4.1), so home assignment is a per-page function
attached to each region.  The C** runtime aligns homes with the computation
distribution (each element's home is the node that owns it), which is what
makes "own-element" accesses local.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.util.config import MachineConfig
from repro.util.errors import ConfigError, SimulationError

#: Maps a page index (within a region) to its home node.
HomePolicy = Callable[[int], int]


def round_robin_pages(n_nodes: int) -> HomePolicy:
    """The default Stache policy: pages dealt round-robin across nodes."""
    return lambda page: page % n_nodes


def block_partition(n_pages: int, n_nodes: int) -> HomePolicy:
    """Contiguous page ranges per node (block distribution of pages)."""
    per = max(1, -(-n_pages // n_nodes))  # ceil
    return lambda page: min(page // per, n_nodes - 1)


@dataclass(frozen=True)
class Region:
    """One allocation in the global address space."""

    name: str
    base: int
    size: int
    home_policy: HomePolicy
    page_size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def home_of(self, addr: int) -> int:
        page = (addr - self.base) // self.page_size
        return self.home_policy(page)


class AddressSpace:
    """Allocator plus addr -> block -> home arithmetic."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self._next = config.page_size  # address 0 reserved (null)
        self._regions: list[Region] = []
        self._by_name: dict[str, Region] = {}
        # Cache of block -> home; regions are immutable once created.
        self._home_cache: dict[int, int] = {}

    # -- allocation ------------------------------------------------------------

    def allocate(
        self,
        name: str,
        nbytes: int,
        home_policy: HomePolicy | None = None,
    ) -> Region:
        """Allocate a page-aligned region of at least ``nbytes`` bytes."""
        if nbytes <= 0:
            raise ConfigError(f"allocation size must be positive, got {nbytes}")
        if name in self._by_name:
            raise ConfigError(f"region named {name!r} already allocated")
        ps = self.config.page_size
        size = -(-nbytes // ps) * ps  # round up to page
        if home_policy is None:
            home_policy = round_robin_pages(self.config.n_nodes)
        region = Region(name, self._next, size, home_policy, ps)
        self._next += size
        self._regions.append(region)
        self._by_name[name] = region
        return region

    def region(self, name: str) -> Region:
        return self._by_name[name]

    @property
    def regions(self) -> Sequence[Region]:
        return tuple(self._regions)

    # -- address arithmetic -----------------------------------------------------

    def block_of(self, addr: int) -> int:
        """The global block index containing byte ``addr``."""
        return addr // self.config.block_size

    def block_addr(self, block: int) -> int:
        return block * self.config.block_size

    def blocks_of_range(self, addr: int, nbytes: int) -> range:
        """All block indices touched by ``[addr, addr+nbytes)``."""
        if nbytes <= 0:
            raise SimulationError(f"empty access at {addr}")
        first = addr // self.config.block_size
        last = (addr + nbytes - 1) // self.config.block_size
        return range(first, last + 1)

    def find_region(self, addr: int) -> Region:
        for r in self._regions:
            if r.contains(addr):
                return r
        raise SimulationError(f"address {addr:#x} not in any region")

    def home_of_block(self, block: int) -> int:
        """Home node of a block (cached; regions are append-only)."""
        home = self._home_cache.get(block)
        if home is None:
            addr = self.block_addr(block)
            home = self._checked_home(self.find_region(addr).home_of(addr))
            self._home_cache[block] = home
        return home

    def page_homes(self, region: Region) -> list[int]:
        """The home node of each of ``region``'s pages, in page order."""
        return [self._checked_home(region.home_policy(page))
                for page in range(region.size // region.page_size)]

    def _checked_home(self, home: int) -> int:
        n = self.config.n_nodes
        if not (0 <= home < n):
            raise ConfigError(f"home policy returned node {home} (n_nodes={n})")
        return home
