"""Ablations of the design choices the paper's text calls out.

(a) **Block coalescing** (§3.4): the pre-send phase transfers runs of
    neighboring blocks in bulk messages "to amortize message startup
    costs".  We run Water optimized with coalescing on/off.
(b) **Incremental schedules vs. rebuild** (§3.3, §2): schedules grow
    incrementally instead of being rebuilt whenever the pattern changes
    (the inspector-executor approach re-runs its inspector).  We run
    Adaptive with ``rebuild_every_group`` on/off.
(c) **Deletions and schedule flushing** (§3.3): the protocol does not
    track deletions, so a shifting consumer set accumulates useless
    pre-sends until the schedule is flushed.  A synthetic producer-consumer
    workload with a rotating consumer set measures useless transfers with
    and without periodic flushes.
(d) **Block-size sweep** (§5, "we experimented with different cache block
    sizes"): the predictive protocol works best at small blocks.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.apps import adaptive, water
from repro.core import make_machine
from repro.core.predictive import PredictiveProtocol
from repro.tempest.machine import PhaseTrace
from repro.tempest.tags import AccessTag
from repro.util.config import MachineConfig
from repro.util.tables import format_table


@contextmanager
def predictive_knobs(coalesce: bool = True, rebuild: bool = False,
                     anticipate: bool = False):
    """Temporarily flip PredictiveProtocol's class-level policy knobs."""
    saved = (PredictiveProtocol.coalesce_presend,
             PredictiveProtocol.rebuild_every_group,
             PredictiveProtocol.anticipate_conflicts)
    PredictiveProtocol.coalesce_presend = coalesce
    PredictiveProtocol.rebuild_every_group = rebuild
    PredictiveProtocol.anticipate_conflicts = anticipate
    try:
        yield
    finally:
        (PredictiveProtocol.coalesce_presend,
         PredictiveProtocol.rebuild_every_group,
         PredictiveProtocol.anticipate_conflicts) = saved


# --------------------------------------------------------------------------- #
# (a) coalescing
# --------------------------------------------------------------------------- #


def ablation_coalescing(n: int = 96, iterations: int = 4) -> str:
    cfg = MachineConfig(n_nodes=8, page_size=512, block_size=32, per_byte_cost=0.6)
    rows = []
    results = {}
    for coalesce in (True, False):
        with predictive_knobs(coalesce=coalesce):
            prog = water.build(n=n, iterations=iterations, work_scale=8.0)
            m = make_machine(cfg, "predictive")
            stats = prog.run(m, optimized=True).finish()
        results[coalesce] = stats
        rows.append([
            "coalesced (bulk messages)" if coalesce else "one message per block",
            stats.wall_time,
            stats.figure_breakdown()["Predictive protocol"],
            float(m.protocol.presend_messages),
            float(m.protocol.presend_blocks),
        ])
    out = format_table(
        ["pre-send policy", "wall cycles", "predictive cycles",
         "pre-send msgs", "blocks sent"],
        rows,
        title="Ablation (a): pre-send block coalescing (Water, optimized, 32 B)",
        floatfmt=".4g",
    )
    speed = results[False].wall_time / results[True].wall_time
    return out + f"\ncoalescing speeds the run by {speed:.2f}x"


# --------------------------------------------------------------------------- #
# (b) incremental vs rebuild
# --------------------------------------------------------------------------- #


def ablation_incremental(size: int = 16, iterations: int = 10) -> str:
    cfg = MachineConfig(n_nodes=8, page_size=512, block_size=32, per_byte_cost=0.6)
    rows = []
    results = {}
    for rebuild in (False, True):
        with predictive_knobs(rebuild=rebuild):
            prog = adaptive.build(size=size, iterations=iterations,
                                  threshold=0.05, work_scale=8.0)
            m = make_machine(cfg, "predictive")
            stats = prog.run(m, optimized=True).finish()
        results[rebuild] = stats
        rows.append([
            "rebuilt every phase (inspector-executor style)" if rebuild
            else "incremental (this paper)",
            stats.wall_time,
            float(stats.misses),
            stats.hit_rate,
        ])
    out = format_table(
        ["schedule policy", "wall cycles", "misses", "hit rate"],
        rows,
        title="Ablation (b): incremental schedules vs. rebuild (Adaptive, optimized)",
        floatfmt=".4g",
    )
    speed = results[True].wall_time / results[False].wall_time
    return out + f"\nincremental schedules speed the run by {speed:.2f}x"


# --------------------------------------------------------------------------- #
# (c) deletions + flush
# --------------------------------------------------------------------------- #


def _rotating_consumer_run(
    iterations: int, shift_every: int, flush_every: int | None,
    n_nodes: int = 8, blocks_per_phase: int = 24,
) -> tuple[float, int]:
    """Producer-consumer with a consumer set that rotates every
    ``shift_every`` iterations (deletions the schedule cannot track).

    Returns (wall_time, useless_presends).
    """
    cfg = MachineConfig(n_nodes=n_nodes, block_size=32, page_size=512)
    m = make_machine(cfg, "predictive")
    region = m.addr_space.allocate("data", 8 * cfg.page_size,
                                   home_policy=lambda p: 0)
    first = m.addr_space.block_of(region.base)
    for b in range(first, first + region.size // cfg.block_size):
        m.nodes[0].tags.set(b, AccessTag.READ_WRITE)
    blocks = list(range(first, first + blocks_per_phase))

    for it in range(iterations):
        consumer = 1 + (it // shift_every) % (n_nodes - 1)
        if flush_every is not None and it % flush_every == 0 and it > 0:
            m.protocol.flush_schedule(1)
        # read phase: current consumer reads all blocks
        m.begin_group(1)
        ops = [[] for _ in range(n_nodes)]
        ops[consumer] = [("r", b) for b in blocks]
        m.run_phase(PhaseTrace(f"read#{it}", ops))
        m.end_group()
        # write phase: producer updates all blocks
        m.begin_group(2)
        ops = [[] for _ in range(n_nodes)]
        ops[0] = [("w", b) for b in blocks]
        m.run_phase(PhaseTrace(f"write#{it}", ops))
        m.end_group()
    stats = m.finish()
    useless = sum(nd.presend_useless_blocks for nd in stats.nodes)
    return stats.wall_time, useless


def ablation_flush(iterations: int = 24, shift_every: int = 6) -> str:
    rows = []
    results = {}
    for label, flush_every in [("never flushed", None),
                               ("flushed at each shift", shift_every)]:
        wall, useless = _rotating_consumer_run(iterations, shift_every, flush_every)
        results[label] = wall
        rows.append([label, wall, float(useless)])
    out = format_table(
        ["flush policy", "wall cycles", "useless pre-sent blocks"],
        rows,
        title="Ablation (c): deletions accumulate useless pre-sends until a "
              "flush (rotating consumer)",
        floatfmt=".4g",
    )
    speed = results["never flushed"] / results["flushed at each shift"]
    return out + f"\nflushing at pattern shifts speeds the run by {speed:.2f}x"


# --------------------------------------------------------------------------- #
# (d) block-size sweep
# --------------------------------------------------------------------------- #


def ablation_latency_sweep(latencies=(100, 300, 1000, 3000)) -> str:
    """§5.4: "This technique is beneficial on multiprocessor machines with
    significant remote memory access latency ... The tradeoff is likely to
    be different for shared-memory multiprocessors or hardware-assisted
    DSMs, which have smaller remote access latencies."

    Sweep the network latency from hardware-DSM-like (100 cycles) to
    software-DSM-like (3000 cycles) and measure the predictive protocol's
    speedup on Water.
    """
    rows = []
    for lat in latencies:
        cfg = MachineConfig(n_nodes=8, page_size=512, block_size=32,
                            per_byte_cost=0.6, msg_latency=lat,
                            handler_cost=max(25, lat // 8))
        base = water.build(n=48, iterations=4, work_scale=8.0).run(
            make_machine(cfg, "stache"), optimized=False
        ).finish()
        pred = water.build(n=48, iterations=4, work_scale=8.0).run(
            make_machine(cfg, "predictive"), optimized=True
        ).finish()
        rows.append([
            lat,
            base.wall_time,
            pred.wall_time,
            base.wall_time / pred.wall_time,
        ])
    return format_table(
        ["msg latency (cycles)", "unopt cycles", "opt cycles", "speedup"],
        rows,
        title="Ablation (e): predictive pre-sending pays off with remote "
              "latency (§5.4) — hardware DSMs gain less",
        floatfmt=".4g",
    )


def ablation_block_sweep(sizes=(32, 64, 128, 256)) -> str:
    rows = []
    for bs in sizes:
        cfg = MachineConfig(n_nodes=8, page_size=512, block_size=bs,
                            per_byte_cost=0.6)
        gains = {}
        prog = adaptive.build(size=16, iterations=8, threshold=0.05,
                              work_scale=8.0)
        m_base = make_machine(cfg, "stache")
        base = prog.run(m_base, optimized=False).finish()
        prog2 = adaptive.build(size=16, iterations=8, threshold=0.05,
                               work_scale=8.0)
        m_pred = make_machine(cfg, "predictive")
        pred = prog2.run(m_pred, optimized=True).finish()
        rows.append([
            bs,
            base.wall_time,
            pred.wall_time,
            base.wall_time / pred.wall_time,
        ])
    return format_table(
        ["block size", "unopt cycles", "opt cycles", "speedup"],
        rows,
        title="Ablation (d): the predictive protocol works best at small "
              "blocks (Adaptive)",
        floatfmt=".4g",
    )
