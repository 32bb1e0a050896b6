"""Block/home geometry for a recording at one evaluated block size.

A :class:`~repro.cstar.recording.ProgramRecording` stores accesses as
(aggregate, flat element index); this module maps them onto the cache-block
space of the configuration being predicted.  Region bases are page-aligned
and depend only on ``page_size`` and declaration order, so the recording's
:class:`~repro.tempest.addrspace.AddressSpace` — with its captured
home-policy closures — answers ``home_of`` for *any* block size: the home
of block *b* at block size *B* is the home of address ``b * B``.
"""

from __future__ import annotations

import numpy as np

from repro.cstar.recording import ProgramRecording
from repro.util.config import MachineConfig


class LayoutModel:
    """Element→block and block→home mapping for one (recording, config)."""

    def __init__(self, recording: ProgramRecording, config: MachineConfig):
        recording.check_placement(config)
        self.recording = recording
        self.block_size = config.block_size
        self._shift = config.block_size.bit_length() - 1
        self._home_cache: dict[int, int] = {}

    def blocks(self, agg_idx: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Vectorized element→block map (first byte of each element)."""
        return self.recording.blocks(agg_idx, flat, self._shift)

    def home(self, block: int) -> int:
        h = self._home_cache.get(block)
        if h is None:
            addr = block * self.block_size
            h = self.recording.addr_space.find_region(addr).home_of(addr)
            self._home_cache[block] = h
        return h
