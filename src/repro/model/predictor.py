"""The analytical predictor: fold and walk the recording, then assemble cycles.

The simulator replays every access through a discrete-event engine; the
predictor replaces that timing pass with closed-form stages (docs/MODEL.md):

**Fold** (:mod:`repro.model.layout`; per block size, shared by every
protocol): reduce each phase's access streams to at most two events per
(node, block) — the first read and the first write.

**Walk** (cost-independent, kept on the recording per ``(block_size,
protocol, optimized, warm-start)``): evolve a directory of
:class:`~repro.protocols.directory.DirEntry` records through the fold's
events by the protocols' own directory step (``demand``, ``reclaim``, the
grants).  Every miss is classified by what ``demand`` names into one of six
coefficient vectors over the cost basis ``(fault, control-flight,
data-flight, handler, dir-lookup)``; pre-send phases, schedule learning,
deferred judgment and degradation are the predictive protocol's own
:mod:`repro.core.presend` planner and schedule lifecycle, run at the
default knobs.  The walk also counts every message and byte the protocol
would send.

**Assemble** (per *grid* of cost tables): price the walk against P
:class:`~repro.util.config.MachineConfig` s at once — cursors, arrivals,
barrier releases and per-category cycles are ``(P,)`` / ``(n, P)`` arrays
advanced by the same left-to-right float operations a point-at-a-time
evaluation performs, so every column is bit-identical to pricing that point
alone (:func:`predict` *is* the P = 1 grid).  A
:class:`~repro.sim.stats.RunStats` in the simulator's own schema is
materialised per point on request, conservative by construction: phases are
assembled exactly the way the machine charges them (compute + wait ->
barrier arrival; barrier release = max arrival + latency; the remainder is
SYNCH), so each node's category cycles sum to wall time.

Miss classes: :meth:`DirEntry.demand
<repro.protocols.directory.DirEntry.demand>` names what home takes back
before it grants (an owner to recall, ``k`` sharers to invalidate, or
neither), and the faulting node is home (local) or not (remote).  ACK /
WB_DATA handlers pay ``handler_cost + directory_lookup_cost``:

========================  ==================  ======  ===================
class                     ``demand``          fault   (F, L, DATA, H, D)
========================  ==================  ======  ===================
``LOC_IDLE``              neither             local   (1, 0, 0, 1, 1)
``LOC_RECALL``            recall the owner    local   (1, 1, 1, 3, 2)
``LOC_WRITE_SHARED(k)``   invalidate k        local   (1, 2, 0, 2+k, 1+k)
``REM_CURRENT``           neither             remote  (1, 1, 1, 2, 1)
``REM_RECALL``            recall the owner    remote  (1, 2, 2, 4, 2)
``REM_WRITE_SHARED(k)``   invalidate k        remote  (1, 3, 1, 3+k, 1+k)
========================  ==================  ======  ===================
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from repro.core.factory import PROTOCOLS as _PROTOCOL_CLASSES
from repro.core.presend import (
    DEFAULTS,
    ENTRY as _ENTRY,
    INV as _INV,
    RECALL as _RECALL,
    SEND as _SEND,
    ScheduleLifecycle,
    plan_presend,
)
from repro.cstar.recording import (
    ProgramRecording,
    cached_recordings,
    record_program,
)
from repro.model.layout import LayoutModel, PhaseFold
from repro.protocols.directory import DirEntry, Directory
from repro.protocols.writeupdate import push_set
from repro.sim.stats import PhaseBreakdown, RunStats, TimeCategory
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError, ProtocolError

PROTOCOLS = tuple(_PROTOCOL_CLASSES)

#: M/D/1 utilization clamp — keeps the contention estimate finite when a
#: phase's handler demand approaches its makespan
_RHO_MAX = 0.95

#: the categories the model charges, in TimeCategory order (DOWNTIME is a
#: crash-recovery category and stays 0.0), and their rows in cycle arrays
_CATEGORIES = (TimeCategory.COMPUTE, TimeCategory.REMOTE_WAIT,
               TimeCategory.PREDICTIVE, TimeCategory.SYNCH)
_COMPUTE, _WAIT, _PRESEND, _SYNCH = range(4)

#: a miss's coefficient vector over (F, L, DATA, H, D) and its handler runs
#: at home, keyed by what ``DirEntry.demand`` names and whether the faulting
#: node is home; k invalidations add k x ``_PER_ACK`` and k runs
_MISS_CLASSES = {
    ("recall", True): ((1., 1., 1., 3., 2.), 2),      # LOC_RECALL
    ("recall", False): ((1., 2., 2., 4., 2.), 2),     # REM_RECALL
    ("invalidate", True): ((1., 2., 0., 2., 1.), 1),  # LOC_WRITE_SHARED
    ("invalidate", False): ((1., 3., 1., 3., 1.), 1),  # REM_WRITE_SHARED
    ("neither", True): ((1., 0., 0., 1., 1.), 1),     # LOC_IDLE
    ("neither", False): ((1., 1., 1., 2., 1.), 1),    # REM_CURRENT
}
_PER_ACK = (0., 0., 0., 1., 1.)

#: REM_RECALL (write flavor): what one ping-pong re-steal costs
_STEAL = np.array(_MISS_CLASSES["recall", False][0])


@dataclass
class PhaseWalk:
    """Cost-independent summary of one phase (all nodes)."""

    name: str
    directive: int | None
    compute: np.ndarray        # (n,) value-pass compute cycles
    accesses: np.ndarray       # (n,) shared-access op count
    misses: np.ndarray         # (n,) read + write misses
    coeff: np.ndarray          # (n, 5) summed miss-class coefficients
    messages: int              # messages sent during the phase
    #: (n, n): (handler+lookup) services node i's misses demand at node j
    services: np.ndarray
    #: (n,) the fold's ping-pong exposure; the calibration fits a
    #: per-protocol scale ``delta`` for how much of it timing realizes
    pingpong: np.ndarray
    pushes: PushWalk | None = None


@dataclass
class PushWalk:
    """A write-update push program (``adjust_barrier``'s loop): producer
    ``producers[j]`` sends ``runs[j]`` single-block updates back to back;
    ``dst`` is every update's consumer, in push order."""

    producers: np.ndarray
    runs: np.ndarray
    dst: np.ndarray


@dataclass
class PresendWalk:
    """One pre-send phase as per-home token programs.

    ``programs[home]`` is the codes of home's :func:`~repro.core.presend.
    plan_presend` program — ``ENTRY`` schedule-entry walk, ``RECALL``
    synchronous writer recall, ``INV`` pre-send invalidation, ``SEND`` a
    (possibly bulk) data transfer — and ``tokens[home]`` the positions of
    its ``INV`` / ``SEND`` tokens, each a message; ``dst`` and ``count`` are
    the messages' destinations and blocks carried (0 for an invalidation),
    in (home, token) order.  That is everything the assemble stage needs to
    recompute cursors and arrival queues under any cost table.
    """

    programs: list[np.ndarray]
    tokens: list[np.ndarray]
    dst: np.ndarray
    count: np.ndarray


@dataclass
class WalkResult:
    """Everything cost-independent about one (program, protocol) execution."""

    n_nodes: int
    block_size: int
    steps: list[tuple[str, object]]   # ("presend", PresendWalk) | ("phase", PhaseWalk)
    #: per-node totals of the run's counters, keyed by NodeStats field
    counters: dict[str, np.ndarray]
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
        self.shared_state = _PROTOCOL_CLASSES[protocol].shared_state
        # the walk never needs the transient BUSY states: queued requests
        # are simply processed in sequence
        self.dir = Directory(layout.home)
        self.steps: list[tuple[str, object]] = []
        #: run totals per node, keyed by NodeStats field (Python ints)
        self.counters = {name: [0] * self.n for name in (
            "read_misses", "write_misses", "local_hits",
            "presend_blocks_sent", "presend_blocks_received",
            "presend_useless_blocks", "messages_sent", "bytes_sent")}
        self.messages = self.counters["messages_sent"]
        self.bytes_sent = self.counters["bytes_sent"]
        self.degraded = 0
        self.total_requests = 0
        self.current_directive: int | None = None
        self.group_accessed: set[tuple[int, int]] = set()
        # the predictive protocol's own schedule lifecycle, at its default
        # knobs (ablations are a simulator-only affair)
        self.life = None
        if protocol == "predictive" and optimized:
            self.life = ScheduleLifecycle(DEFAULTS)
            list(self.life.warm_seed(warm))

    def run(self) -> WalkResult:
        folds = iter(self.layout.fold())
        for kind, payload in self.recording.session(self.optimized):
            if kind == "begin_group":
                self._begin_group(payload)
            elif kind == "end_group":
                self._end_group()
            else:
                self.steps.append(
                    ("phase", self._walk_phase(payload, next(folds))))
        return WalkResult(
            n_nodes=self.n,
            block_size=self.block_size,
            steps=self.steps,
            counters={name: np.array(column, dtype=np.int64)
                      for name, column in self.counters.items()},
            degraded=self.degraded,
            total_requests=self.total_requests,
        )

    # -- phase groups ---------------------------------------------------------

    def _begin_group(self, directive: int) -> None:
        self.current_directive = directive
        self.group_accessed.clear()
        if self.life is None:
            return
        sched, degraded = self.life.begin(directive)
        self.degraded += degraded
        if self.life.presend_due(sched):
            self.steps.append(("presend", self._presend(sched)))

    def _end_group(self) -> None:
        if self.life is not None:
            _, useless = self.life.end(self.current_directive,
                                       self.group_accessed)
            for dst in useless:
                self.counters["presend_useless_blocks"][dst] += 1
        self.current_directive = None

    def _presend(self, sched) -> PresendWalk:
        """Run the protocol's pre-send planner at every home; count its
        messages and keep its token programs for the assemble stage."""
        messages, bytes_sent = self.messages, self.bytes_sent
        B, programs, tokens, dsts, counts = self.block_size, [], [], [], []
        blocks_sent = self.counters["presend_blocks_sent"]
        blocks_received = self.counters["presend_blocks_received"]
        slices = sched.entries_by_home(self.layout.home, self.n)
        for home in range(self.n):
            prog: list[int] = []
            sent: list[int] = []    # positions of prog's message tokens
            for token in plan_presend(sched, slices[home], home, self.life,
                                      self.dir, DirEntry.permits):
                code = token[0]
                if code == _RECALL:  # synchronous owner write-back
                    messages[home] += 1
                    messages[token[2]] += 1
                    bytes_sent[token[2]] += B
                elif code != _ENTRY:  # a message: invalidation or transfer
                    dst, count = token[1], token[4] if code == _SEND else 0
                    sent.append(len(prog))
                    dsts.append(dst)
                    counts.append(count)
                    messages[home] += 1
                    bytes_sent[home] += count * B
                    blocks_sent[home] += count
                    blocks_received[dst] += count
                prog.append(code)
            programs.append(np.array(prog, dtype=np.int8))
            tokens.append(np.array(sent, dtype=np.int64))
        return PresendWalk(programs, tokens, np.array(dsts, dtype=np.int64),
                           np.array(counts, dtype=np.int64))

    # -- phases ---------------------------------------------------------------

    def _walk_phase(self, ph, fold: PhaseFold) -> PhaseWalk:
        n, life, missed = self.n, self.life, [0] * self.n
        coeff = [[0.0] * 5 for _ in range(n)]
        services = [[0] * n for _ in range(n)]
        sent_before = sum(self.messages)

        entry_of = self.dir.entry
        by_kind = self.counters["read_misses"], self.counters["write_misses"]
        for block, node, kind, home in fold.events.tolist():
            st = entry_of(block)
            access = "rw"[kind]
            if st.permits(node, access):
                continue
            missed[node] += 1
            by_kind[kind][node] += 1
            if life is not None:
                life.record(self.current_directive, block, node, access)
            self._classify(st, node, access, home, coeff, services)
        self.total_requests += sum(missed)

        # completed accesses: usefulness judgment + group bookkeeping (a
        # touched pair consumes its pending pre-sent copy, if any)
        if life is not None:
            pairs = list(map(tuple, fold.touched.tolist()))
            self.group_accessed.update(pairs)
            for pair in [p for p in pairs if p in life.pending]:
                life.consume(*pair)

        pushes = (self._push_walk(fold)
                  if self.protocol == "write-update" else None)
        self.counters["local_hits"] = [h + a - m for h, a, m in zip(
            self.counters["local_hits"], fold.accesses.tolist(), missed)]
        return PhaseWalk(
            name=ph.name,
            directive=self.current_directive,
            compute=np.asarray(ph.compute, dtype=np.float64),
            accesses=fold.accesses,
            misses=np.array(missed, dtype=np.int64),
            coeff=np.array(coeff, dtype=np.float64),
            messages=sum(self.messages) - sent_before,
            services=np.array(services, dtype=np.int64),
            pingpong=fold.pingpong,
            pushes=pushes,
        )

    # -- stache/predictive miss classification --------------------------------

    def _classify(self, st: DirEntry, node, kind, home, coeff,
                  services) -> None:
        """One miss through the directory step: price what ``demand`` names
        (``coeff[node]`` gains its vector component by component), then
        reclaim and grant as the home's handlers do."""
        if kind == "w" and self.protocol == "write-update":
            raise ProtocolError(
                f"write-update protocol requires producer-owned data; node "
                f"{node} wrote a block homed at {home}",
                node=node,
            )
        owner, acks = st.demand(node, kind)
        k = len(acks)
        vec, served = _MISS_CLASSES[
            "recall" if owner is not None else "invalidate" if k else "neither",
            node == home]
        if k:
            vec = [v + k * a for v, a in zip(vec, _PER_ACK)]
            served += k
        row = coeff[node]
        for j, v in enumerate(vec):
            row[j] += v
        services[node][home] += served
        messages, bytes_sent, B = self.messages, self.bytes_sent, self.block_size
        messages[home] += (owner is not None) + k
        if node != home:
            messages[node] += 1
            messages[home] += 1
            bytes_sent[home] += B
        if owner is not None:
            messages[owner] += 1
            bytes_sent[owner] += B
            st.reclaim()
        for sharer in acks:
            messages[sharer] += 1
        if kind == "r":
            st.grant_read(node, self.shared_state)
        else:
            st.grant_write(node)

    # -- write-update push programs -------------------------------------------

    def _push_walk(self, fold: PhaseFold) -> PushWalk | None:
        """``adjust_barrier``'s push set as a program: one single-block
        update per pushed block (``coalesce_updates`` is off)."""
        pushes = push_set(fold.wrote.tolist(), self.dir)
        if not pushes:
            return None
        producers = sorted(pushes)
        dst = [[consumer for consumer, blocks in sorted(pushes[p].items())
                for _ in blocks] for p in producers]
        for producer, sends in zip(producers, dst):
            self.messages[producer] += len(sends)
            self.bytes_sent[producer] += len(sends) * self.block_size
        return PushWalk(np.array(producers), np.array(list(map(len, dst))),
                        np.array([c for sends in dst for c in sends]))


# -- the assemble stage -------------------------------------------------------


def _column(configs, field: str) -> np.ndarray:
    return np.array([getattr(cfg, field) for cfg in configs],
                    dtype=np.float64)


class _CostGrid:
    """P cost tables as ``(P,)`` columns (one per point of the grid)."""

    def __init__(self, configs, block_size: int, residuals) -> None:
        self.F = _column(configs, "fault_cost")
        self.L = _column(configs, "msg_latency")
        self.h = _column(configs, "handler_cost")
        self.d = _column(configs, "directory_lookup_cost")
        self.e = _column(configs, "presend_entry_cost")
        self.pb = _column(configs, "per_byte_cost")
        self.hit = _column(configs, "cache_hit_cost")
        self.bar = _column(configs, "barrier_latency")
        self.bulk = _column(configs, "bulk_msg_overhead") + self.L
        self.block_size = block_size
        #: flight of one data block: ``message_cost(block_size)``
        self.data = self.L + self.pb * block_size
        #: (P, 5) rows over (fault, control flight, data flight, handler,
        #: dir lookup): a row is the basis vector of that point priced alone
        self.basis = np.stack([self.F, self.L, self.data, self.h, self.d],
                              axis=1)
        self.steal = np.array([float(_STEAL @ row) for row in self.basis])
        self.alpha, self.gamma, self.delta = residuals


def _matvec(matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``matrix @ v`` for every row ``v`` of ``columns``, one product per
    point: a batched product may sum in another order, these may not."""
    return np.stack([matrix @ v for v in np.ascontiguousarray(columns)],
                    axis=1)


def _drain(dst: np.ndarray, arrival, cost, busy, *, by_arrival: bool):
    """Serve each destination's queue of ``(M, P)`` messages in place:
    ``busy[dst] = max(arrival, busy[dst]) + cost``, message by message, all
    points advancing together.  ``by_arrival`` serves in arrival order, ties
    in message order — a stable sort, and messages are numbered in (source,
    sequence) order."""
    for d in np.unique(dst):
        queue = np.flatnonzero(dst == d)
        arrived, costs = arrival[queue], cost[queue]
        if by_arrival:
            order = np.argsort(arrived, axis=0, kind="stable")
            arrived = np.take_along_axis(arrived, order, axis=0)
            costs = np.take_along_axis(costs, order, axis=0)
        served = busy[d]
        for at, service in zip(arrived, costs):
            served = np.maximum(at, served) + service
        busy[d] = served
    return busy


def _chain(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """A cursor's ``(len(steps) + 1, P)`` positions: ``start``, then one
    step added at a time (accumulate is the left-to-right running sum)."""
    return np.add.accumulate(np.concatenate([start[None], steps]), axis=0)


def _assemble_presend(step: PresendWalk, cost: _CostGrid, start: np.ndarray,
                      cycles: np.ndarray) -> np.ndarray:
    """Replay pre-send token programs; mirrors ``Machine.begin_group``."""
    recall = 2.0 * cost.data + 2.0 * cost.h
    # what each token code adds to its home's cursor (a send's is its
    # injection occupancy)
    advance = np.stack([cost.e, recall, cost.e, cost.h])
    cursors = [_chain(start, advance[codes]) for codes in step.programs]
    departure = np.concatenate(
        [cursor[sent] for cursor, sent in zip(cursors, step.tokens)])
    count = step.count[:, None]
    bulk = count > 1
    flight = np.where(bulk, cost.bulk, cost.L) + cost.pb * (
        count * cost.block_size)
    install = np.where(bulk, cost.h + cost.e * count, cost.h)
    busy = _drain(step.dst, departure + flight, install,
                  np.tile(start, (len(cursors), 1)), by_arrival=True)
    send_done = np.stack([cursor[-1] for cursor in cursors])
    release = np.maximum(send_done, busy).max(axis=0) + cost.bar
    cycles[_PRESEND] += release - start
    return release


def _assemble_pushes(push: PushWalk, cost: _CostGrid, arrivals: np.ndarray,
                     cycles: np.ndarray) -> np.ndarray:
    """Replay a write-update push program; mirrors ``adjust_barrier``."""
    P = arrivals.shape[1]
    # producer cursors: one handler occupancy per send
    cursors = [_chain(arrivals[producer], np.broadcast_to(cost.h, (runs, P)))
               for producer, runs in zip(push.producers, push.runs)]
    sends = np.concatenate([cursor[1:] for cursor in cursors])
    done = _drain(push.dst, sends + cost.data,
                  np.broadcast_to(cost.h + cost.e, sends.shape),
                  np.zeros_like(arrivals), by_arrival=False)
    adjusted = arrivals.copy()
    adjusted[push.producers] = [cursor[-1] for cursor in cursors]
    cycles[_WAIT] += adjusted - arrivals    # producers: their send train
    late = np.maximum(done, adjusted)
    cycles[_WAIT] += late - adjusted        # consumers: installs still due
    return late


def _assemble(walk: WalkResult, cost: _CostGrid):
    """Price a walk against a grid of cost tables.

    Returns ``(wall_time (P,), cycles (4, n, P), phase rows)``; a phase row
    is ``(start (P,), release (P,), category totals so far (4, P),
    contention (n, P), steal (n, P))``.
    """
    n, P = walk.n_nodes, len(cost.F)
    hd = cost.h + cost.d
    cycles = np.zeros((len(_CATEGORIES), n, P))
    clock = np.zeros(P)
    rows = []
    for step_kind, step in walk.steps:
        if step_kind == "presend":
            clock = _assemble_presend(step, cost, clock, cycles)
            continue

        compute = step.compute[:, None] + cost.hit * step.accesses[:, None]
        base_wait = _matvec(step.coeff, cost.basis)
        n_miss = step.misses.astype(np.float64)

        # M/D/1-style handler contention: demand each home's handler sees
        # this phase vs. the phase's uncontended makespan
        contention = np.zeros((n, P))
        demand = step.services.sum(axis=0).astype(np.float64)[:, None] * hd
        span = (compute + base_wait).max(axis=0)
        contended = (span > 0.0) & demand.any(axis=0)
        if contended.any():
            rho = np.minimum(demand / np.where(contended, span, 1.0),
                             _RHO_MAX)
            wait_per_service = hd * rho / (2.0 * (1.0 - rho))
            at = np.flatnonzero(contended)
            contention[:, at] = _matvec(step.services,
                                        wait_per_service.T[at])

        steal = step.pingpong[:, None] * cost.steal
        wait = np.maximum(
            base_wait + cost.alpha * n_miss[:, None] + cost.gamma * contention
            + cost.delta * steal, 0.0)
        arrivals = clock + compute + wait
        cycles[_COMPUTE] += compute
        cycles[_WAIT] += wait
        if step.pushes is not None:
            arrivals = _assemble_pushes(step.pushes, cost, arrivals, cycles)
        release = arrivals.max(axis=0) + cost.bar
        cycles[_SYNCH] += release - arrivals
        # accumulate, not sum: a node-by-node running total, as RunStats
        # adds its node accumulators up
        totals = np.add.accumulate(cycles, axis=1)[:, -1].copy()
        rows.append((clock, release, totals, contention, steal))
        clock = release
    return clock, cycles, rows


@dataclass
class GridPrediction:
    """One walk priced at P cost points: cycles are arrays over the points,
    counters are the walk's.  The aggregate attributes mirror
    :class:`RunStats` (so a sweep fills its columns from either)."""

    protocol: str
    optimized: bool
    walk: WalkResult
    walk_cached: bool
    wall_time: np.ndarray        # (P,)
    cycles: np.ndarray           # (category, node, P)
    phase_rows: list[tuple]      # see _assemble

    def totals(self) -> dict[TimeCategory, np.ndarray]:
        """Mean cycles per category, ``(P,)`` each (``RunStats.totals``)."""
        means = (np.add.accumulate(self.cycles, axis=1)[:, -1]
                 / self.walk.n_nodes)
        return dict(zip(_CATEGORIES, means))

    def _count(self, *names: str) -> int:
        return int(sum(self.walk.counters[name].sum() for name in names))

    misses = property(lambda self: self._count("read_misses", "write_misses"))
    local_hits = property(lambda self: self._count("local_hits"))
    messages = property(lambda self: self._count("messages_sent"))
    bytes_on_wire = property(lambda self: self._count("bytes_sent"))
    presend_blocks_sent = property(
        lambda self: self._count("presend_blocks_sent"))

    def prediction(self, p: int) -> ModelPrediction:
        """Materialise point ``p``: its full ``RunStats`` and features."""
        walk = self.walk
        stats = RunStats(walk.n_nodes)
        node_cycles = self.cycles[:, :, p].T.tolist()
        for ns, per_category in zip(stats.nodes, node_cycles):
            ns.cycles.update(zip(_CATEGORIES, per_category))
            for name, column in walk.counters.items():
                setattr(ns, name, int(column[ns.node]))
        marks = [0.0] * len(_CATEGORIES)
        features = []
        phases = (step for kind, step in walk.steps if kind == "phase")
        for ph, (start, release, totals, contention, steal) in zip(
                phases, self.phase_rows):
            totals = totals[:, p].tolist()
            misses = int(ph.misses.sum())
            stats.phases.append(PhaseBreakdown(
                ph.name,
                ph.directive,
                float(start[p]),
                float(release[p]),
                misses=misses,
                hits=int(ph.accesses.sum()) - misses,
                messages=ph.messages,
                cycles={c.value: total - mark for c, total, mark
                        in zip(_CATEGORIES, totals, marks) if total != mark},
            ))
            marks = totals
            # a column copy sums pairwise, as the (n,) vector it stands for
            features.append((float(misses),
                             float(contention[:, p].copy().sum()),
                             float(steal[:, p].copy().sum())))
        stats.wall_time = float(self.wall_time[p])
        stats.total_remote_requests = walk.total_requests
        stats.schedules_degraded = walk.degraded
        return ModelPrediction(stats, self.protocol, self.optimized,
                               features, self.walk_cached)


# -- walk caching and the public entry points ---------------------------------

#: host-side counters (never part of a report), zeroed by clear_walk_cache()
_STATS = {"points": 0, "groups": 0, "walks": 0, "walks_cached": 0,
          "folds": 0, "fold_s": 0.0, "walk_s": 0.0, "assemble_s": 0.0}


def model_info() -> dict:
    """Points priced, grids, walks (``walks_cached`` reuses) and folds
    made, and each stage's host seconds (``fold_s``, ``walk_s``,
    ``assemble_s``)."""
    return dict(_STATS)


def _warm_fingerprint(warm) -> str | None:
    if not warm:
        return None
    return json.dumps(sorted(warm, key=lambda r: r.get("directive", -1)),
                      sort_keys=True)


def _get_walk(recording: ProgramRecording, config: MachineConfig,
              protocol: str, optimized: bool, warm) -> tuple[WalkResult, bool]:
    """Folds and walks hang off the recording: they are evicted with it, and
    a key-less (run-only) recording shares them with nobody."""
    key = (config.block_size, protocol, optimized, _warm_fingerprint(warm))
    walk = recording.walks.get(key)
    if walk is not None:
        _STATS["walks_cached"] += 1
        return walk, True
    layout = recording.folds.get(config.block_size)
    if layout is None:
        start = time.perf_counter()
        layout = recording.folds[config.block_size] = LayoutModel(
            recording, config)
        _STATS["fold_s"] += time.perf_counter() - start
        _STATS["folds"] += 1
    start = time.perf_counter()
    walk = recording.walks[key] = _Walker(
        recording, layout, protocol, optimized, warm).run()
    _STATS["walk_s"] += time.perf_counter() - start
    _STATS["walks"] += 1
    return walk, False


def clear_walk_cache() -> None:
    """Drop every cached recording's folds and walks; zero the counters."""
    for recording in cached_recordings():
        recording.folds.clear()
        recording.walks.clear()
    _STATS.update(dict.fromkeys(_STATS, 0))


def predict_grid(app, build_kwargs: dict | None = None, *, protocol: str,
                 optimized: bool, configs, variant: str = "cstar", warm=None,
                 calibration=None) -> GridPrediction:
    """Predict P configurations that differ only in their cost tables.

    ``app`` is an application module with a ``build(**kwargs)`` entry point
    (``repro.apps``); ``configs`` are :class:`MachineConfig` s sharing
    ``n_nodes``, ``page_size`` and ``block_size`` (one recording, one walk);
    ``warm`` is an iterable of corpus schedule records (see ``repro.corpus``)
    to warm-start the predictive protocol's learned schedules;
    ``calibration`` supplies per-protocol residual coefficients (default:
    uncalibrated — alpha 0, contention scale 1) — one for the grid, or a
    sequence with one per point.
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(
            f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    configs = list(configs)
    shapes = {(c.n_nodes, c.page_size, c.block_size) for c in configs}
    if len(shapes) != 1:
        raise ConfigError(
            f"a model grid needs one (n_nodes, page_size, block_size) for "
            f"all of its points, got {sorted(shapes)}")
    config = configs[0]
    recording = record_program(app, build_kwargs, variant,
                               n_nodes=config.n_nodes,
                               page_size=config.page_size)
    walk, cached = _get_walk(recording, config, protocol, optimized, warm)
    if not isinstance(calibration, (list, tuple)):
        calibration = [calibration] * len(configs)
    if len(calibration) != len(configs):
        raise ConfigError(
            f"{len(calibration)} calibrations for {len(configs)} grid points")
    residuals = np.array([(0.0, 1.0, 0.0) if cal is None
                          else cal.for_protocol(protocol)
                          for cal in calibration]).T
    start = time.perf_counter()
    wall_time, cycles, phase_rows = _assemble(
        walk, _CostGrid(configs, config.block_size, residuals))
    _STATS["assemble_s"] += time.perf_counter() - start
    _STATS["points"] += len(configs)
    _STATS["groups"] += 1
    return GridPrediction(protocol, optimized, walk, cached, wall_time,
                          cycles, phase_rows)


def predict(app, build_kwargs: dict | None = None, *, protocol: str,
            optimized: bool, config: MachineConfig, variant: str = "cstar",
            warm=None, calibration=None) -> ModelPrediction:
    """Predict one configuration's :class:`RunStats` analytically: the
    one-point :func:`predict_grid` (same arguments), materialised."""
    return predict_grid(
        app, build_kwargs, protocol=protocol, optimized=optimized,
        configs=[config], variant=variant, warm=warm,
        calibration=calibration).prediction(0)
