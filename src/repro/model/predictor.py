"""The analytical predictor: walk the recording, then assemble cycles.

The simulator replays every access through a discrete-event engine; the
predictor replaces that timing pass with two closed-form stages:

**Walk** (cost-independent, cached per ``(recording, block_size, protocol,
optimized, warm-start)``): fold each phase's access streams to at most two
events per (node, block) — the first read and the first write — and evolve
an analytical directory through them.  Every miss is classified into one of
six coefficient vectors over the cost basis ``(fault, control-flight,
data-flight, handler, dir-lookup)``; pre-send phases, schedule learning,
deferred judgment and degradation run against the *real*
:class:`~repro.core.schedule.CommSchedule` / ``ScheduleStore`` classes, so
fault-free pre-send counts are exact by construction.  The walk also counts
every message and byte the protocol would send.

**Assemble** (per cost table): evaluate the walk's coefficient sums against
a :class:`~repro.util.config.MachineConfig`, replay pre-send token programs
and write-update push programs for their cursor arithmetic, add an M/D/1
home-handler contention estimate, and apply the calibration's per-protocol
residual coefficients.  The output is a :class:`~repro.sim.stats.RunStats`
in the simulator's own schema, conservative by construction: each node's
category cycles sum to wall time because phases are assembled exactly the
way the machine charges them (compute + wait -> barrier arrival; barrier
release = max arrival + latency; the remainder is SYNCH).

Splitting walk from assemble is what makes ``repro sweep --model`` fast:
a grid over cost axes (``msg_latency``, ``per_byte_cost``, ...) reuses one
walk per structural point and pays only the assemble per cell.

Miss classes (derived from :mod:`repro.protocols.stache` +
:mod:`repro.protocols.base`; ``k`` = remote sharers invalidated, and ACK /
WB_DATA handlers pay ``handler_cost + directory_lookup_cost``):

========================  ==========================================  ===================
class                     fault path                                  (F, L, DATA, H, D)
========================  ==========================================  ===================
``LOC_IDLE``              local fault, home grants immediately        (1, 0, 0, 1, 1)
``LOC_RECALL``            local fault recalls a remote writer         (1, 1, 1, 3, 2)
``LOC_WRITE_SHARED(k)``   local write invalidates k remote readers    (1, 2, 0, 2+k, 1+k)
``REM_CURRENT``           remote fault, home memory is current        (1, 1, 1, 2, 1)
``REM_RECALL``            remote fault recalls the current writer     (1, 2, 2, 4, 2)
``REM_WRITE_SHARED(k)``   remote write invalidates k other readers    (1, 3, 1, 3+k, 1+k)
========================  ==========================================  ===================
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import (
    CommSchedule,
    EntryKind,
    ScheduleStore,
    coalesce_blocks,
)
from repro.cstar.recording import ProgramRecording, record_program
from repro.model.layout import LayoutModel
from repro.sim.stats import PhaseBreakdown, RunStats, TimeCategory
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError, ProtocolError

PROTOCOLS = ("stache", "predictive", "write-update")

# analytical directory states (the walk never needs the transient BUSY
# states: queued requests are simply processed in sequence)
_IDLE, _SHARED, _EXCL, _UPD = 0, 1, 2, 3

# coefficient columns: fault, control flight (L), data flight (L + pb*B),
# handler (h), directory lookup (d)
_F, _L, _DATA, _H, _D = range(5)

#: default knobs mirrored from PredictiveProtocol (the model predicts the
#: default configuration; ablation knobs are a simulator-only affair)
_DEGRADE_PATIENCE = 3
_DEGRADE_COOLDOWN = 2
_MAX_SCHEDULES = 64

#: M/D/1 utilization clamp — keeps the contention estimate finite when a
#: phase's handler demand approaches its makespan
_RHO_MAX = 0.95

#: ping-pong burst compression: consecutive same-(node, block) ops whose
#: positions are at most this far apart count as one atomic burst (a few
#: ops take far less time than a steal's fault round-trip, so a mid-burst
#: steal is not a realizable ownership alternation)
_BURST_GAP = 8


def _permits_r(st: list, node: int, home: int) -> bool:
    s = st[0]
    if s == _IDLE:
        return node == home
    if s == _EXCL:
        return node == st[2]
    return node == home or node in st[1]  # SHARED / UPDATE_SHARED


def _permits_w(st: list, node: int, home: int) -> bool:
    s = st[0]
    if s == _IDLE or s == _UPD:
        return node == home
    if s == _EXCL:
        return node == st[2]
    return False  # SHARED


@dataclass
class PhaseWalk:
    """Cost-independent summary of one phase (all nodes)."""

    name: str
    directive: int | None
    compute: np.ndarray        # (n,) value-pass compute cycles
    accesses: np.ndarray       # (n,) shared-access op count
    read_misses: np.ndarray    # (n,)
    write_misses: np.ndarray   # (n,)
    coeff: np.ndarray          # (n, 5) summed miss-class coefficients
    messages: np.ndarray       # (n,) messages sent during the phase
    bytes_sent: np.ndarray     # (n,)
    #: (n, n): (handler+lookup) services node i's misses demand at node j
    services: np.ndarray
    #: (n,) intra-phase ping-pong exposure: how many times each node
    #: *re*-acquired a block it had already written this phase (ownership
    #: alternation the first-access fold cannot see; the calibration fits
    #: a per-protocol scale ``delta`` for how much of it the simulator's
    #: timing actually realizes)
    pingpong: np.ndarray = None
    #: write-update push program: [(producer, [(consumer, n_runs), ...])]
    pushes: list | None = None


@dataclass
class PresendWalk:
    """One pre-send phase: per-home token programs plus its exact counters.

    Tokens — ``("e",)`` schedule-entry walk, ``("recall",)`` synchronous
    writer recall, ``("inv", dst)`` pre-send invalidation, ``("send", dst,
    count)`` a (possibly bulk) data transfer — carry everything the assemble
    stage needs to recompute cursors and arrival queues under any cost table.
    """

    directive: int
    programs: list[list[tuple]]
    messages: np.ndarray
    bytes_sent: np.ndarray
    blocks_sent: np.ndarray
    blocks_received: np.ndarray


@dataclass
class WalkResult:
    """Everything cost-independent about one (program, protocol) execution."""

    n_nodes: int
    block_size: int
    steps: list[tuple[str, object]]   # ("presend", PresendWalk) | ("phase", PhaseWalk)
    useless: np.ndarray               # (n,) presend_useless_blocks
    degraded: int
    total_requests: int


@dataclass
class ModelPrediction:
    """A model run: simulator-schema stats plus the model's own metadata."""

    stats: RunStats
    protocol: str
    optimized: bool
    #: per recorded phase: (total misses, raw contention cycles, raw
    #: ping-pong cycles) — the feature vector the calibration fits against
    phase_features: list[tuple[float, float, float]]
    walk_cached: bool


# -- the walk -----------------------------------------------------------------


class _Walker:
    """Evolves the analytical directory through one recorded execution."""

    def __init__(self, recording: ProgramRecording, layout: LayoutModel,
                 protocol: str, optimized: bool, warm) -> None:
        self.recording = recording
        self.layout = layout
        self.protocol = protocol
        self.optimized = optimized
        self.n = recording.n_nodes
        self.block_size = layout.block_size
        self.dir: dict[int, list] = {}
        self.steps: list[tuple[str, object]] = []
        self.useless = np.zeros(self.n, dtype=np.int64)
        self.degraded = 0
        self.total_requests = 0
        self.current_directive: int | None = None
        # predictive mirror state (uses the real schedule classes)
        self.predictive = protocol == "predictive" and optimized
        self.store = ScheduleStore(_MAX_SCHEDULES) if self.predictive else None
        self.suppress_learning = False
        self.pending: dict[tuple[int, int], CommSchedule] = {}
        self.presented: set[tuple[int, int]] = set()
        self.group_accessed: set[tuple[int, int]] = set()
        if self.predictive and warm:
            self._warm_seed(warm)

    def _warm_seed(self, records) -> None:
        # mirrors PredictiveProtocol.warm_seed
        for record in records or ():
            try:
                sched = CommSchedule.from_record(record)
            except Exception:
                continue
            if not sched.entries or sched.directive_id in self.store:
                continue
            self.store.insert(sched)

    def _state(self, block: int) -> list:
        st = self.dir.get(block)
        if st is None:
            st = [_IDLE, set(), None]
            self.dir[block] = st
        return st

    def run(self) -> WalkResult:
        for kind, payload in self.recording.session(self.optimized):
            if kind == "begin_group":
                self._begin_group(payload)
            elif kind == "end_group":
                self._end_group()
            else:
                self.steps.append(("phase", self._walk_phase(payload)))
        return WalkResult(
            n_nodes=self.n,
            block_size=self.block_size,
            steps=self.steps,
            useless=self.useless,
            degraded=self.degraded,
            total_requests=self.total_requests,
        )

    # -- phase groups ---------------------------------------------------------

    def _begin_group(self, directive: int) -> None:
        self.current_directive = directive
        self.group_accessed.clear()
        if not self.predictive:
            return
        sched = self.store.fetch(directive)
        sched.begin_instance()
        self.presented.clear()
        self.suppress_learning = False
        if sched.wasted_streak >= _DEGRADE_PATIENCE:
            sched.degrade(_DEGRADE_COOLDOWN)
            self.degraded += 1
            self.pending = {
                pair: owner for pair, owner in self.pending.items()
                if owner is not sched
            }
        if sched.cooldown > 0:
            sched.cooldown -= 1
            self.suppress_learning = True
            return
        if not sched.entries:
            return
        self.steps.append(("presend", self._walk_presend(directive, sched)))

    def _end_group(self) -> None:
        if self.predictive:
            presented = len(self.presented)
            useless = 0
            for dst, block in self.presented:
                if (dst, block) not in self.group_accessed:
                    self.useless[dst] += 1
                    useless += 1
            self.presented.clear()
            self.suppress_learning = False
            sched = self.store.get(self.current_directive)
            if sched is not None:
                sched.note_presend_outcome(presented, useless)
                sched.fold_instance_judgment()
        self.current_directive = None

    def _register_presend(self, dst: int, block: int,
                          sched: CommSchedule) -> None:
        prev = self.pending.get((dst, block))
        if prev is not None:
            prev.note_waste()
        self.pending[(dst, block)] = sched

    def _walk_presend(self, directive: int, sched: CommSchedule) -> PresendWalk:
        """Mirror of ``PredictiveProtocol.begin_group``'s per-home walk."""
        n, B = self.n, self.block_size
        home_of = self.layout.home
        programs: list[list[tuple]] = []
        messages = np.zeros(n, dtype=np.int64)
        bytes_sent = np.zeros(n, dtype=np.int64)
        blocks_sent = np.zeros(n, dtype=np.int64)
        blocks_received = np.zeros(n, dtype=np.int64)

        for node in range(n):
            prog: list[tuple] = []
            outgoing: dict[tuple[int, int], list[int]] = {}  # (dst, 1=RO/2=RW)
            for entry in sched.entries_for_home(home_of, node):
                prog.append(("e",))
                kind = entry.kind
                if kind is EntryKind.CONFLICT:
                    continue  # no anticipated action (§3.4)
                st = self._state(entry.block)
                if kind is EntryKind.READ:
                    if st[0] == _EXCL:
                        owner = st[2]
                        prog.append(("recall",))
                        messages[node] += 1
                        messages[owner] += 1
                        bytes_sent[owner] += B
                        st[0], st[2] = _IDLE, None
                        st[1].clear()
                        self._register_presend(node, entry.block, sched)
                    for reader in sorted(entry.readers):
                        if reader == node:
                            continue
                        if _permits_r(st, reader, node):
                            continue
                        outgoing.setdefault((reader, 1), []).append(entry.block)
                        st[1].add(reader)
                        st[0] = _SHARED
                else:  # WRITE
                    writer = entry.writer
                    if st[0] == _EXCL:
                        if st[2] == writer:
                            continue
                        owner = st[2]
                        prog.append(("recall",))
                        messages[node] += 1
                        messages[owner] += 1
                        bytes_sent[owner] += B
                        st[0], st[2] = _IDLE, None
                        st[1].clear()
                    elif st[0] == _SHARED:
                        for sharer in sorted(st[1]):
                            if sharer == writer:
                                continue
                            prog.append(("inv", sharer))
                            messages[node] += 1
                        st[1].intersection_update({writer})
                    if writer == node:
                        st[1].clear()
                        st[0], st[2] = _IDLE, None
                    else:
                        if _permits_w(st, writer, node):
                            continue
                        outgoing.setdefault((writer, 2), []).append(entry.block)
                        st[1].clear()
                        st[0], st[2] = _EXCL, writer
            # bulk sends, mirroring _send_bulk's (dst, tag) order
            for (dst, _tag), blocks in sorted(outgoing.items()):
                for first, count in coalesce_blocks(blocks):
                    prog.append(("send", dst, count))
                    messages[node] += 1
                    bytes_sent[node] += count * B
                    blocks_sent[node] += count
                    blocks_received[dst] += count
                    for b in range(first, first + count):
                        self.presented.add((dst, b))
                        self._register_presend(dst, b, sched)
            programs.append(prog)

        return PresendWalk(
            directive=directive,
            programs=programs,
            messages=messages,
            bytes_sent=bytes_sent,
            blocks_sent=blocks_sent,
            blocks_received=blocks_received,
        )

    # -- phases ---------------------------------------------------------------

    def _walk_phase(self, ph) -> PhaseWalk:
        n = self.n
        compute = np.asarray(ph.compute, dtype=np.float64)
        accesses = np.array([len(ph.accesses(node)[0]) for node in range(n)],
                            dtype=np.int64)
        read_misses = np.zeros(n, dtype=np.int64)
        write_misses = np.zeros(n, dtype=np.int64)
        coeff = np.zeros((n, 5), dtype=np.float64)
        messages = np.zeros(n, dtype=np.int64)
        bytes_sent = np.zeros(n, dtype=np.int64)
        services = np.zeros((n, n), dtype=np.int64)

        events, touched, writes, pingpong = self._phase_events(ph)
        learn = (self.predictive and self.current_directive is not None
                 and not self.suppress_learning)
        sched = None  # fetched lazily: the sim only touches the store on a miss
        B = self.block_size

        for block, node, kind, _pos in events:
            home = self.layout.home(block)
            st = self._state(block)
            if kind == 0:  # read
                if _permits_r(st, node, home):
                    continue
                read_misses[node] += 1
                self.total_requests += 1
                if learn:
                    if sched is None:
                        sched = self.store.fetch(self.current_directive)
                    sched.record(block, node, "r")
                self._classify_read(st, node, home, coeff, messages,
                                    bytes_sent, services, B)
            else:  # write
                if _permits_w(st, node, home):
                    continue
                write_misses[node] += 1
                self.total_requests += 1
                if learn:
                    if sched is None:
                        sched = self.store.fetch(self.current_directive)
                    sched.record(block, node, "w")
                self._classify_write(st, node, home, coeff, messages,
                                     bytes_sent, services, B)

        # completed accesses: usefulness judgment + group bookkeeping
        if self.optimized or self.protocol == "write-update":
            for pair in touched:
                self.group_accessed.add(pair)
                if self.predictive:
                    owner = self.pending.pop(pair, None)
                    if owner is not None:
                        owner.note_useful()

        pushes = None
        if self.protocol == "write-update":
            pushes = self._push_program(writes, messages, bytes_sent)

        return PhaseWalk(
            name=ph.name,
            directive=self.current_directive,
            compute=compute,
            accesses=accesses,
            read_misses=read_misses,
            write_misses=write_misses,
            coeff=coeff,
            messages=messages,
            bytes_sent=bytes_sent,
            services=services,
            pingpong=pingpong,
            pushes=pushes,
        )

    def _phase_events(self, ph):
        """Fold access streams to per-(node, block) first-read/first-write
        events, ordered by (block, first-op position, read-first, node).

        A block's repeated accesses after the granting fault hit, and a
        read *after* the node's first write hits (the write grant installs a
        writable copy), so at most two events per (node, block) can miss:
        the first read (if it precedes the write) and the first write.

        The fold is exact unless the simulator's timing interleaves two
        nodes *writing the same block* within one phase — then ownership
        ping-pongs and later accesses re-miss.  That alternation count is
        timing-dependent, so the walk only measures the *exposure* (how
        many separate write bursts per (node, block) the op-position
        interleaving suggests) and leaves the realized fraction to the
        calibration's ``delta`` coefficient.
        """
        cols_node, cols_block, cols_kind, cols_pos = [], [], [], []
        for node in range(self.n):
            agg, flat, kind = ph.accesses(node)
            if len(flat) == 0:
                continue
            cols_node.append(np.full(len(flat), node, dtype=np.int64))
            cols_block.append(self.layout.blocks(agg, flat))
            cols_kind.append(kind)
            cols_pos.append(np.arange(len(flat), dtype=np.int64))
        if not cols_node:
            return [], set(), [], np.zeros(self.n, dtype=np.float64)
        nodec = np.concatenate(cols_node)
        blockc = np.concatenate(cols_block)
        kindc = np.concatenate(cols_kind)
        posc = np.concatenate(cols_pos)
        pingpong = self._pingpong_exposure(nodec, blockc, kindc, posc)

        # first occurrence of each (node, block, kind)
        order = np.lexsort((posc, kindc, blockc, nodec))
        nn, bb, kk, pp = nodec[order], blockc[order], kindc[order], posc[order]
        first = np.ones(len(nn), dtype=bool)
        if len(nn) > 1:
            first[1:] = (nn[1:] != nn[:-1]) | (bb[1:] != bb[:-1]) | (kk[1:] != kk[:-1])
        nn, bb, kk, pp = nn[first], bb[first], kk[first], pp[first]

        # drop read events preceded by the same node's write to the block
        events: list[tuple[int, int, int, int]] = []
        touched: set[tuple[int, int]] = set()
        writes: list[tuple[int, int]] = []
        i = 0
        m = len(nn)
        while i < m:
            node, block = int(nn[i]), int(bb[i])
            touched.add((node, block))
            if i + 1 < m and nn[i + 1] == nn[i] and bb[i + 1] == bb[i]:
                # both a read and a write (kind sorts read first)
                pos_r, pos_w = int(pp[i]), int(pp[i + 1])
                if pos_r < pos_w:
                    events.append((block, node, 0, pos_r))
                events.append((block, node, 1, pos_w))
                writes.append((node, block))
                i += 2
            else:
                kind = int(kk[i])
                events.append((block, node, kind, int(pp[i])))
                if kind == 1:
                    writes.append((node, block))
                i += 1
        # same-block events from different nodes ordered by op position
        # (the intra-phase time proxy), reads before writes on ties
        events.sort(key=lambda ev: (ev[0], ev[3], ev[2], ev[1]))
        return events, touched, writes, pingpong

    def _pingpong_exposure(self, nodec, blockc, kindc, posc) -> np.ndarray:
        """Per-node ping-pong chain exposure (see docs/MODEL.md).

        Three-stage fold.  First, each (node, block)'s accesses are
        compressed into *bursts*: maximal groups whose consecutive op
        positions are at most ``_BURST_GAP`` apart.  A tight burst is
        shorter than a remote steal's round trip, so it behaves atomically
        in the simulator even when another node's positions interleave with
        it (SPLASH-style slot-per-processor sweeps look fully alternated by
        position yet realize essentially no ping-pong).  Second, the bursts
        of each block are run-compressed in start-position order; every
        write-bearing run after a node's first one is a potential mid-phase
        re-steal the first-access fold cannot represent.  Third, a block's
        extra runs are summed into its *chain length*, and every node that
        touches the block is charged the whole chain: steals serialize (the
        block bounces through one home), so each participant stalls for the
        full bounce chain, not just its own share — which is also what
        spreads the cost onto the barrier (SYNCH) of non-participants.
        Positions still over-interleave relative to real timing, so the
        result enters the prediction only scaled by the fitted ``delta``.
        """
        exposure = np.zeros(self.n, dtype=np.float64)
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
        key = (b2[rs][run_write] * self.n + n2[rs][run_write])
        uniq, counts = np.unique(key, return_counts=True)
        # stage 3: per-block chain length = total extra runs over all nodes
        cb = uniq // self.n
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
        pairs = np.unique(bb * self.n + bn)
        pblk = pairs // self.n
        pnode = (pairs % self.n).astype(np.intp)
        idx = np.searchsorted(chain_blk, pblk)
        idx_c = np.minimum(idx, len(chain_blk) - 1)
        valid = chain_blk[idx_c] == pblk
        np.add.at(exposure, pnode[valid],
                  chain_len[idx_c[valid]].astype(np.float64))
        return exposure

    # -- stache/predictive miss classification --------------------------------

    def _classify_read(self, st, node, home, coeff, messages, bytes_sent,
                       services, B) -> None:
        c = coeff[node]
        if st[0] == _UPD or self.protocol == "write-update":
            # write-update consumer registration: home stays writable
            # (UPDATE_SHARED) and the consumer is pushed to forever after
            c += (1, 1, 1, 2, 1)
            messages[node] += 1
            messages[home] += 1
            bytes_sent[home] += B
            services[node, home] += 1
            st[0] = _UPD
            st[1].add(node)
            return
        if node == home:
            # home can only read-miss on an exclusive remote copy
            if st[0] == _EXCL:
                owner = st[2]
                c += (1, 1, 1, 3, 2)  # LOC_RECALL
                messages[home] += 1
                messages[owner] += 1
                bytes_sent[owner] += B
                services[node, home] += 2
                st[0], st[2] = _IDLE, None
                st[1].clear()
            else:  # defensive: immediate local grant
                c += (1, 0, 0, 1, 1)  # LOC_IDLE
                services[node, home] += 1
            return
        if st[0] == _EXCL:
            owner = st[2]
            c += (1, 2, 2, 4, 2)  # REM_RECALL
            messages[node] += 1
            messages[home] += 2
            bytes_sent[home] += B
            messages[owner] += 1
            bytes_sent[owner] += B
            services[node, home] += 2
            st[0], st[2] = _SHARED, None
            st[1] = {node}
        else:  # IDLE / SHARED: home memory is current
            c += (1, 1, 1, 2, 1)  # REM_CURRENT
            messages[node] += 1
            messages[home] += 1
            bytes_sent[home] += B
            services[node, home] += 1
            st[0] = _SHARED
            st[1].add(node)

    def _classify_write(self, st, node, home, coeff, messages, bytes_sent,
                        services, B) -> None:
        if st[0] == _UPD or self.protocol == "write-update":
            raise ProtocolError(
                f"write-update protocol requires producer-owned data; node "
                f"{node} wrote a block homed at {home}",
                node=node,
            )
        c = coeff[node]
        if node == home:
            if st[0] == _EXCL:
                owner = st[2]
                c += (1, 1, 1, 3, 2)  # LOC_RECALL (RECALL_INV path)
                messages[home] += 1
                messages[owner] += 1
                bytes_sent[owner] += B
                services[node, home] += 2
            elif st[0] == _SHARED:
                k = len(st[1])
                c += (1, 2, 0, 2 + k, 1 + k)  # LOC_WRITE_SHARED(k)
                messages[home] += k
                for sharer in st[1]:
                    messages[sharer] += 1  # ACK
                services[node, home] += 1 + k
            else:  # defensive: immediate local grant
                c += (1, 0, 0, 1, 1)  # LOC_IDLE
                services[node, home] += 1
            st[0], st[2] = _IDLE, None
            st[1].clear()
            return
        if st[0] == _EXCL:
            owner = st[2]
            c += (1, 2, 2, 4, 2)  # REM_RECALL (write flavor)
            messages[node] += 1
            messages[home] += 2
            bytes_sent[home] += B
            messages[owner] += 1
            bytes_sent[owner] += B
            services[node, home] += 2
        elif st[0] == _SHARED and st[1] - {node}:
            others = st[1] - {node}
            k = len(others)
            c += (1, 3, 1, 3 + k, 1 + k)  # REM_WRITE_SHARED(k)
            messages[node] += 1
            messages[home] += k + 1
            bytes_sent[home] += B
            for sharer in others:
                messages[sharer] += 1  # ACK
            services[node, home] += 1 + k
        else:
            # IDLE, or the writer is the sole sharer (in-place upgrade)
            c += (1, 1, 1, 2, 1)  # REM_CURRENT
            messages[node] += 1
            messages[home] += 1
            bytes_sent[home] += B
            services[node, home] += 1
        st[0], st[2] = _EXCL, node
        st[1] = set()

    # -- write-update push programs -------------------------------------------

    def _push_program(self, writes, messages, bytes_sent):
        """Mirror of ``WriteUpdateProtocol.adjust_barrier``'s push loop."""
        pushes: dict[int, dict[int, int]] = {}
        seen: set[tuple[int, int]] = set()
        for node, block in sorted(writes):
            if (node, block) in seen:
                continue
            seen.add((node, block))
            home = self.layout.home(block)
            if home != node:
                raise ProtocolError(
                    f"node {node} wrote block {block} homed at {home} "
                    f"under write-update",
                    node=node, block=block,
                )
            st = self._state(block)
            for consumer in st[1]:
                per = pushes.setdefault(node, {})
                per[consumer] = per.get(consumer, 0) + 1  # coalesce_updates=False
        program = []
        for producer, per_consumer in sorted(pushes.items()):
            runs = sorted(per_consumer.items())
            n_runs = sum(r for _, r in runs)
            messages[producer] += n_runs
            bytes_sent[producer] += n_runs * self.block_size
            program.append((producer, runs))
        return program


# -- the assemble stage -------------------------------------------------------


def _assemble(walk: WalkResult, config: MachineConfig, alpha: float,
              gamma: float, delta: float) -> tuple[RunStats, list]:
    """Evaluate a walk against one cost table; returns (stats, features)."""
    n = walk.n_nodes
    cfg = config
    F, L = float(cfg.fault_cost), float(cfg.msg_latency)
    h, d = float(cfg.handler_cost), float(cfg.directory_lookup_cost)
    B = walk.block_size
    basis = np.array([F, L, L + cfg.per_byte_cost * B, h, d])
    #: one ping-pong re-steal costs a remote recall (REM_RECALL, write)
    steal_cost = float(np.array([1, 2, 2, 4, 2]) @ basis)
    hit_cost = float(cfg.cache_hit_cost)
    bar = float(cfg.barrier_latency)

    stats = RunStats(n)
    marks = {c: 0.0 for c in TimeCategory}
    clock = 0.0
    features: list[tuple[float, float, float]] = []

    def cycle_delta() -> dict[str, float]:
        delta: dict[str, float] = {}
        for c in TimeCategory:
            total = sum(node.cycles[c] for node in stats.nodes)
            if total != marks[c]:
                delta[c.value] = total - marks[c]
                marks[c] = total
        return delta

    for step_kind, step in walk.steps:
        if step_kind == "presend":
            clock = _assemble_presend(step, stats, cfg, clock)
            continue

        compute = step.compute + hit_cost * step.accesses
        base_wait = step.coeff @ basis
        n_miss = (step.read_misses + step.write_misses).astype(np.float64)

        # M/D/1-style handler contention: demand each home's handler sees
        # this phase vs. the phase's uncontended makespan
        contention = np.zeros(n)
        demand = step.services.sum(axis=0).astype(np.float64) * (h + d)
        span = float(np.max(compute + base_wait)) if n else 0.0
        if span > 0.0 and demand.any():
            rho = np.minimum(demand / span, _RHO_MAX)
            wait_per_service = (h + d) * rho / (2.0 * (1.0 - rho))
            contention = step.services @ wait_per_service

        steal = (step.pingpong * steal_cost if step.pingpong is not None
                 else np.zeros(n))
        wait = np.maximum(
            base_wait + alpha * n_miss + gamma * contention + delta * steal,
            0.0)
        start = clock
        arrivals = start + compute + wait

        for i in range(n):
            stats.nodes[i].add(TimeCategory.COMPUTE, float(compute[i]))
            stats.nodes[i].add(TimeCategory.REMOTE_WAIT, float(wait[i]))

        if step.pushes:
            arrivals = _assemble_pushes(step.pushes, arrivals, stats, cfg)

        release = float(np.max(arrivals)) + bar if n else clock + bar
        for i in range(n):
            stats.nodes[i].add(TimeCategory.SYNCH, release - float(arrivals[i]))
        clock = release

        for i in range(n):
            ns = stats.nodes[i]
            ns.read_misses += int(step.read_misses[i])
            ns.write_misses += int(step.write_misses[i])
            ns.local_hits += int(step.accesses[i] - step.read_misses[i]
                                 - step.write_misses[i])
            ns.messages_sent += int(step.messages[i])
            ns.bytes_sent += int(step.bytes_sent[i])

        stats.phases.append(PhaseBreakdown(
            step.name,
            step.directive,
            start,
            release,
            misses=int(n_miss.sum()),
            hits=int(step.accesses.sum() - n_miss.sum()),
            messages=int(step.messages.sum()),
            cycles=cycle_delta(),
        ))
        features.append((float(n_miss.sum()), float(contention.sum()),
                         float(steal.sum())))

    stats.wall_time = clock
    stats.total_remote_requests = walk.total_requests
    stats.schedules_degraded = walk.degraded
    for i in range(n):
        stats.nodes[i].presend_useless_blocks += int(walk.useless[i])
    return stats, features


def _assemble_presend(step: PresendWalk, stats: RunStats,
                      cfg: MachineConfig, start: float) -> float:
    """Replay pre-send token programs; mirrors ``Machine.begin_group``."""
    n = len(step.programs)
    h = float(cfg.handler_cost)
    e = float(cfg.presend_entry_cost)
    recall_cost = 2.0 * cfg.message_cost(cfg.block_size) + 2.0 * h
    send_done = [start] * n
    #: per destination: (arrival, src, seq, handler cost) of pre-send traffic
    inbound: dict[int, list[tuple[float, int, int, float]]] = {}
    seq = 0
    for home, prog in enumerate(step.programs):
        cursor = start
        for token in prog:
            op = token[0]
            if op == "e":
                cursor += e
            elif op == "recall":
                cursor += recall_cost
            elif op == "inv":
                dst = token[1]
                arrival = cursor + cfg.message_cost(0)
                inbound.setdefault(dst, []).append((arrival, home, seq, h))
                seq += 1
                cursor += e
            else:  # ("send", dst, count)
                dst, count = token[1], token[2]
                payload = count * cfg.block_size
                if count > 1:
                    flight = cfg.bulk_message_cost(payload)
                    install = h + e * count
                else:
                    flight = cfg.message_cost(payload)
                    install = h
                inbound.setdefault(dst, []).append(
                    (cursor + flight, home, seq, install))
                seq += 1
                cursor += h  # injection occupancy
        send_done[home] = cursor

    install_busy = [start] * n
    for dst, queue in inbound.items():
        busy = start
        for arrival, _src, _seq, cost in sorted(queue):
            busy = max(arrival, busy) + cost
        install_busy[dst] = busy

    completions = [max(send_done[i], install_busy[i], start) for i in range(n)]
    release = max(completions) + cfg.barrier_latency
    for node in stats.nodes:
        node.add(TimeCategory.PREDICTIVE, release - start)
        node.presend_blocks_sent += int(step.blocks_sent[node.node])
        node.presend_blocks_received += int(step.blocks_received[node.node])
        node.messages_sent += int(step.messages[node.node])
        node.bytes_sent += int(step.bytes_sent[node.node])
    return release


def _assemble_pushes(program, arrivals: np.ndarray, stats: RunStats,
                     cfg: MachineConfig) -> np.ndarray:
    """Replay a write-update push program; mirrors ``adjust_barrier``."""
    h = float(cfg.handler_cost)
    per_msg = cfg.message_cost(cfg.block_size)
    install = h + float(cfg.presend_entry_cost)
    adjusted = arrivals.astype(np.float64).copy()
    install_done: dict[int, float] = {}
    for producer, runs in program:
        cursor = float(adjusted[producer])
        for consumer, n_runs in runs:
            done = install_done.get(consumer, 0.0)
            for _ in range(n_runs):
                send = cursor + h
                done = max(done, send + per_msg) + install
                cursor = send
            install_done[consumer] = done
        stats.nodes[producer].add(
            TimeCategory.REMOTE_WAIT, cursor - float(adjusted[producer]))
        adjusted[producer] = cursor
    for consumer, done in install_done.items():
        if done > adjusted[consumer]:
            stats.nodes[consumer].add(
                TimeCategory.REMOTE_WAIT, done - float(adjusted[consumer]))
            adjusted[consumer] = done
    return adjusted


# -- walk caching and the public entry point ----------------------------------


_WALK_CACHE: dict[tuple, WalkResult] = {}


def _warm_fingerprint(warm) -> str | None:
    if not warm:
        return None
    return json.dumps(sorted(warm, key=lambda r: r.get("directive", -1)),
                      sort_keys=True)


def _get_walk(recording: ProgramRecording, config: MachineConfig,
              protocol: str, optimized: bool, warm) -> tuple[WalkResult, bool]:
    key = (recording.key, config.block_size, protocol, optimized,
           _warm_fingerprint(warm))
    hit = _WALK_CACHE.get(key)
    if hit is not None:
        return hit, True
    layout = LayoutModel(recording, config)
    walk = _Walker(recording, layout, protocol, optimized, warm).run()
    _WALK_CACHE[key] = walk
    return walk, False


def clear_walk_cache() -> None:
    _WALK_CACHE.clear()


def predict(app, build_kwargs: dict | None = None, *, protocol: str,
            optimized: bool, config: MachineConfig, variant: str = "cstar",
            warm=None, calibration=None) -> ModelPrediction:
    """Predict one configuration's :class:`RunStats` analytically.

    ``app`` is an application module with a ``build(**kwargs)`` entry point
    (``repro.apps``); ``warm`` is an iterable of corpus schedule records
    (see ``repro.corpus``) to warm-start the predictive protocol's learned
    schedules; ``calibration`` supplies per-protocol residual coefficients
    (default: uncalibrated — alpha 0, contention scale 1).
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(
            f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    recording = record_program(
        app, build_kwargs, variant,
        n_nodes=config.n_nodes, page_size=config.page_size,
    )
    walk, cached = _get_walk(recording, config, protocol, optimized, warm)
    if calibration is None:
        alpha, gamma, delta = 0.0, 1.0, 0.0
    else:
        alpha, gamma, delta = calibration.for_protocol(protocol)
    stats, features = _assemble(walk, config, alpha, gamma, delta)
    return ModelPrediction(
        stats=stats,
        protocol=protocol,
        optimized=optimized,
        phase_features=features,
        walk_cached=cached,
    )
