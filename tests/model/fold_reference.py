"""The lexsort fold, kept as the packed-key fold's oracle.

This is the fold ``repro.model.layout`` performed before it sorted packed
int64 keys: four multi-key ``np.lexsort`` calls, two of them over every
access, and one region lookup per distinct block.  ``fold_phase(layout,
ph)`` returns the ``PhaseFold`` that ``LayoutModel._fold_phase`` must equal
field by field, in dtype, shape and value.
"""

import numpy as np

from repro.model.layout import _BURST_GAP, PhaseFold


def fold_phase(layout, ph) -> PhaseFold:
    """Fold access streams to per-(node, block) first-read/first-write
    events.  A block's repeated accesses after the granting fault hit,
    and a read *after* the node's first write hits (the write grant
    installs a writable copy), so at most two events per (node, block)
    can miss.  Exact unless timing interleaves two nodes *writing the
    same block* within one phase (ownership ping-pongs and later
    accesses re-miss): that is only measured, as :func:`_pingpong`
    exposure, and left to the calibration's ``delta``.
    """
    n = layout.recording.n_nodes
    streams = [ph.accesses(node) for node in range(n)]
    counts = np.array([len(flat) for _, flat, _ in streams],
                      dtype=np.int64)
    nodec = np.repeat(np.arange(n, dtype=np.int64), counts)
    blockc = np.concatenate([layout.blocks(agg, flat)
                             for agg, flat, _ in streams])
    kindc = np.concatenate([kind for _, _, kind in streams])
    posc = np.concatenate([np.arange(c, dtype=np.int64) for c in counts])

    # first occurrence of each (node, block, kind)
    order = np.lexsort((posc, kindc, blockc, nodec))
    nn, bb, kk, pp = nodec[order], blockc[order], kindc[order], posc[order]
    first = np.ones(len(nn), dtype=bool)
    first[1:] = (nn[1:] != nn[:-1]) | (bb[1:] != bb[:-1]) | (kk[1:] != kk[:-1])
    nn, bb, kk, pp = nn[first], bb[first], kk[first], pp[first]
    # a pair both read and written is two adjacent rows (kind sorts the
    # read first); its read is an event only if it precedes the write
    read_of_both = np.zeros(len(nn), dtype=bool)
    read_of_both[:-1] = (nn[1:] == nn[:-1]) & (bb[1:] == bb[:-1])
    write_of_both = np.roll(read_of_both, 1)
    event = ~read_of_both | (pp < np.roll(pp, -1))
    # same-block events from different nodes ordered by op position
    # (the intra-phase time proxy), reads before writes on ties
    ev = np.flatnonzero(event)
    ev = ev[np.lexsort((nn[ev], kk[ev], pp[ev], bb[ev]))]
    blocks, inverse = np.unique(bb[ev], return_inverse=True)
    space = layout.recording.addr_space
    homes = np.array([space.find_region(b * layout.block_size).home_of(
        b * layout.block_size) for b in blocks.tolist()], dtype=np.int64)
    pairs = np.stack([nn, bb], axis=1)
    return PhaseFold(
        accesses=counts,
        events=np.stack([bb[ev], nn[ev], kk[ev], homes[inverse]], axis=1),
        touched=pairs[~write_of_both],
        wrote=pairs[kk == 1],
        pingpong=_pingpong(n, nodec, blockc, kindc, posc),
    )


def _pingpong(n: int, nodec, blockc, kindc, posc) -> np.ndarray:
    """Per-node ping-pong chain exposure (docs/MODEL.md, "Intra-phase
    ping-pong", has the rationale).

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
    # stage 1: own-stream bursts per (block, node)
    order = np.lexsort((posc, nodec, blockc))
    b1, n1, k1, p1 = (blockc[order], nodec[order], kindc[order],
                      posc[order])
    new_burst = np.ones(len(b1), dtype=bool)
    new_burst[1:] = ((b1[1:] != b1[:-1]) | (n1[1:] != n1[:-1])
                     | (p1[1:] - p1[:-1] > _BURST_GAP))
    starts = np.flatnonzero(new_burst)
    if not len(starts):
        return exposure
    bb, bn, bp = b1[starts], n1[starts], p1[starts]
    bw = np.maximum.reduceat(k1, starts)
    # stage 2: interleave bursts per block by start position
    order = np.lexsort((bn, bp, bb))
    b2, n2, k2 = bb[order], bn[order], bw[order]
    boundary = np.ones(len(b2), dtype=bool)
    boundary[1:] = (b2[1:] != b2[:-1]) | (n2[1:] != n2[:-1])
    rs = np.flatnonzero(boundary)
    run_write = np.maximum.reduceat(k2, rs) > 0
    if not run_write.any():
        return exposure
    # extra write-bearing runs per (block, node) pair
    key = (b2[rs][run_write] * n + n2[rs][run_write])
    uniq, counts = np.unique(key, return_counts=True)
    # stage 3: per-block chain length = total extra runs over all nodes
    cb = uniq // n
    bnd = np.ones(len(cb), dtype=bool)
    bnd[1:] = cb[1:] != cb[:-1]
    cstarts = np.flatnonzero(bnd)
    chain_len = np.add.reduceat(counts - 1, cstarts)
    chain_blk = cb[cstarts]
    nz = chain_len > 0
    chain_blk, chain_len = chain_blk[nz], chain_len[nz]
    if not len(chain_blk):
        return exposure
    # every participant (any burst on the block) bears the full chain
    pairs = np.unique(bb * n + bn)
    pblk = pairs // n
    pnode = (pairs % n).astype(np.intp)
    idx = np.searchsorted(chain_blk, pblk)
    idx_c = np.minimum(idx, len(chain_blk) - 1)
    valid = chain_blk[idx_c] == pblk
    np.add.at(exposure, pnode[valid],
              chain_len[idx_c[valid]].astype(np.float64))
    return exposure
