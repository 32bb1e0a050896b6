"""Block/home geometry and the access fold of a recording at one block size.

A :class:`~repro.cstar.recording.ProgramRecording` stores accesses as
(aggregate, flat element index); this module maps them onto the cache-block
space of the configuration being predicted.  Region bases are page-aligned
and depend only on ``page_size`` and declaration order, so the recording's
:class:`~repro.tempest.addrspace.AddressSpace` — with its captured
home-policy closures — answers ``home_of`` for *any* block size: the home
of block *b* at block size *B* is the home of address ``b * B``.

What the predictor's walk needs from the access streams that does not depend
on protocol state is the *fold* (:meth:`LayoutModel.fold`): integer columns
per phase, computed once per (recording, block size) and shared by the
stache, predictive and write-update walks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cstar.recording import ProgramRecording
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError, SimulationError

#: ping-pong burst compression: consecutive same-(node, block) ops whose
#: positions are at most this far apart count as one atomic burst (a few
#: ops take far less time than a steal's fault round-trip, so a mid-burst
#: steal is not a realizable ownership alternation)
_BURST_GAP = 8


@dataclass
class PhaseFold:
    """One recorded phase folded at one block size (protocol-independent)."""

    accesses: np.ndarray       # (n,) shared-access op count
    #: miss candidates — the first read and first write per (node, block) —
    #: as (block, node, kind 0=read/1=write, home) rows in directory order:
    #: block, then first-op position, then read-first, then node
    events: np.ndarray
    #: every (node, block) pair touched / written, sorted
    touched: np.ndarray
    wrote: np.ndarray
    #: (n,) intra-phase ping-pong chain exposure (see :func:`_pingpong`)
    pingpong: np.ndarray


class LayoutModel:
    """Element→block and block→home mapping for one (recording, config),
    and the recording's fold at its block size."""

    def __init__(self, recording: ProgramRecording, config: MachineConfig):
        recording.check_placement(config)
        self.recording = recording
        self.block_size = config.block_size
        self._shift = config.block_size.bit_length() - 1
        #: a block's page is ``block >> _page_shift`` (page_size >= block_size)
        self._page_shift = config.page_size.bit_length() - 1 - self._shift
        #: home of every page of the address space (-1: the reserved page 0;
        #: regions are allocated back to back after it)
        space = recording.addr_space
        self._page_homes = [-1] + [home for region in space.regions
                                   for home in space.page_homes(region)]
        page_homes = np.array(self._page_homes, dtype=np.int64)
        self._fold = [self._fold_phase(ph, page_homes)
                      for ph in recording.phases()]

    def blocks(self, agg_idx: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Vectorized element→block map (first byte of each element)."""
        return self.recording.blocks(agg_idx, flat, self._shift)

    def home(self, block: int) -> int:
        page = block >> self._page_shift
        if not 1 <= page < len(self._page_homes):
            raise SimulationError(f"block {block} is in no region")
        return self._page_homes[page]

    def fold(self) -> list[PhaseFold]:
        """The recording's phases, folded (in ``recording.phases()`` order)."""
        return self._fold

    def _fold_phase(self, ph, page_homes: np.ndarray) -> PhaseFold:
        """Fold access streams to per-(node, block) first-read/first-write
        events.  A block's repeated accesses after the granting fault hit,
        and a read *after* the node's first write hits (the write grant
        installs a writable copy), so at most two events per (node, block)
        can miss.  Exact unless timing interleaves two nodes *writing the
        same block* within one phase (ownership ping-pongs and later
        accesses re-miss): that is only measured, as :func:`_pingpong`
        exposure, and left to the calibration's ``delta``.
        """
        n = self.recording.n_nodes
        blocks, kinds = [], []
        for node in range(n):
            agg, flat, kind = ph.accesses(node)
            blocks.append(self.blocks(agg, flat))
            kinds.append(kind)
        counts = np.array([len(b) for b in blocks], dtype=np.int64)
        NB, BB, PB = key_widths(n, max((int(b.max()) for b in blocks
                                        if len(b)), default=0),
                                int(counts.max()))
        # every order is one in-place sort of an int64 key packing its sort
        # columns (docs/MODEL.md, "Fold"); here every access as a (node,
        # block, pos, kind) key, sorted one node at a time: a (node, block)
        # pair's accesses are adjacent, in op order
        key = np.empty(int(counts.sum()), dtype=np.int64)
        for node, part in enumerate(np.split(key, np.cumsum(counts)[:-1])):
            part[:] = (blocks[node] << PB | np.arange(len(part))) << 1
            part |= kinds[node] | node << (BB + PB + 1)
            blocks[node] = kinds[node] = None
            part.sort()
        pair = key >> (PB + 1)
        nn, bb = pair >> BB, pair & ((1 << BB) - 1)
        pp, kk = (key >> 1) & ((1 << PB) - 1), key & 1
        first = np.diff(pair, prepend=-1) != 0
        # a pair's first access and its first write are the miss candidates
        # (a read after the write hits)
        writes = np.flatnonzero(kk)
        first_write = writes[np.diff(pair[writes], prepend=-1) != 0]
        event = first.copy()
        event[first_write] = True
        # same-block events from different nodes ordered by op position
        # (the intra-phase time proxy), reads before writes on ties: a
        # (block, pos, kind, node) key
        ev = (((bb[event] << PB | pp[event]) << 1 | kk[event]) << NB
              | nn[event])
        ev.sort()
        ev_block = ev >> (NB + 1 + PB)
        return PhaseFold(
            accesses=counts,
            events=np.stack([ev_block, ev & ((1 << NB) - 1), (ev >> NB) & 1,
                             page_homes[ev_block >> self._page_shift]],
                            axis=1),
            touched=np.stack([nn[first], bb[first]], axis=1),
            wrote=np.stack([nn[first_write], bb[first_write]], axis=1),
            pingpong=_pingpong(n, nn, bb, pp, kk, first, NB, PB),
        )


def key_widths(n_nodes: int, max_block: int, n_ops: int) -> tuple[int, ...]:
    """Bit widths ``(node, block, pos)`` of the fold's int64 keys."""
    widths = ((n_nodes - 1).bit_length(), max_block.bit_length(),
              max(n_ops - 1, 0).bit_length())
    if sum(widths) + 1 > 63:
        raise ConfigError(
            "fold key needs {} bits (node {}, block {}, kind 1, position "
            "{}); an int64 key holds 63".format(sum(widths) + 1, *widths))
    return widths


def _pingpong(n: int, nn, bb, pp, kk, first, NB: int, PB: int) -> np.ndarray:
    """Per-node ping-pong chain exposure (docs/MODEL.md, "Intra-phase
    ping-pong", has the rationale) of the fold's sorted access columns.

    Three-stage fold: (1) each (node, block)'s accesses compress into
    *bursts* of op positions at most ``_BURST_GAP`` apart, which behave
    atomically; (2) a block's bursts are run-compressed in start-position
    order, every write-bearing run after a node's first being a potential
    mid-phase re-steal; (3) a block's extra runs sum to its *chain length*,
    charged whole to every node touching the block (steals serialize through
    one home).  Positions over-interleave relative to real timing, so the
    result enters the prediction only scaled by the fitted ``delta``.
    """
    exposure = np.zeros(n, dtype=np.float64)
    # stage 1: own-stream bursts per (node, block)
    starts = np.flatnonzero(first | (np.diff(pp, prepend=0) > _BURST_GAP))
    # stage 2: interleave bursts per block by start position, by a
    # (block, pos, node, write) key; a run is one node's consecutive bursts
    runs = ((bb[starts] << PB | pp[starts]) << NB | nn[starts]) << 1
    runs |= np.maximum.reduceat(kk, starts)
    runs.sort()
    owner = runs >> (1 + NB + PB) << NB | (runs >> 1) & ((1 << NB) - 1)
    rs = np.flatnonzero(np.diff(owner, prepend=-1))
    writers = owner[rs][np.maximum.reduceat(runs & 1, rs) > 0]
    if not len(writers):
        return exposure
    # stage 3: a block's chain length is its write-bearing runs beyond each
    # writer's first; every node with a burst on the block bears all of it
    blk, n_runs = np.unique(writers >> NB, return_counts=True)
    chain = n_runs - np.unique(np.unique(writers) >> NB, return_counts=True)[1]
    idx = np.minimum(np.searchsorted(blk, bb[first]), len(blk) - 1)
    bears = blk[idx] == bb[first]
    np.add.at(exposure, nn[first][bears], chain[idx[bears]])
    return exposure
