"""The point-at-a-time assemble, kept as the grid assemble's oracle.

This is the evaluation ``repro.model.predictor`` performed before it priced
whole grids: one cost table, Python floats, one node / token / message at a
time, accumulating straight into a ``RunStats``.  It reads the walk's column
form (``PresendWalk.programs``, ``PushWalk.dst``) back into the loops the protocol
code runs, so it shares no arithmetic with the array-valued
``_assemble`` — the differential test requires the two to agree with ``==``.
"""

import numpy as np

from repro.model.predictor import _ENTRY, _INV, _RECALL, _RHO_MAX, _SEND
from repro.sim.stats import PhaseBreakdown, RunStats, TimeCategory


def assemble_point(walk, cfg, alpha=0.0, gamma=1.0, delta=0.0, probe=None):
    """``(RunStats, phase_features)`` of one walk under one cost table.

    ``probe`` (a dict) collects what the replay saw — ``bulk_sends``,
    ``arrival_ties`` (equal arrivals inside one inbound queue) and
    ``push_messages`` — so a test can prove its case exercises them.
    """
    n = walk.n_nodes
    F, L = float(cfg.fault_cost), float(cfg.msg_latency)
    h, d = float(cfg.handler_cost), float(cfg.directory_lookup_cost)
    B = walk.block_size
    basis = np.array([F, L, L + cfg.per_byte_cost * B, h, d])
    steal_cost = float(np.array([1, 2, 2, 4, 2]) @ basis)
    hit_cost = float(cfg.cache_hit_cost)
    bar = float(cfg.barrier_latency)
    probe = {} if probe is None else probe

    stats = RunStats(n)
    marks = {c: 0.0 for c in TimeCategory}
    clock = 0.0
    features = []

    def cycle_delta():
        out = {}
        for c in TimeCategory:
            total = sum(node.cycles[c] for node in stats.nodes)
            if total != marks[c]:
                out[c.value] = total - marks[c]
                marks[c] = total
        return out

    for step_kind, step in walk.steps:
        if step_kind == "presend":
            clock = _presend(step, stats, cfg, clock, probe)
            continue
        compute = step.compute + hit_cost * step.accesses
        base_wait = step.coeff @ basis
        n_miss = step.misses.astype(np.float64)
        contention = np.zeros(n)
        demand = step.services.sum(axis=0).astype(np.float64) * (h + d)
        span = float(np.max(compute + base_wait))
        if span > 0.0 and demand.any():
            rho = np.minimum(demand / span, _RHO_MAX)
            wait_per_service = (h + d) * rho / (2.0 * (1.0 - rho))
            contention = step.services @ wait_per_service
        steal = step.pingpong * steal_cost
        wait = np.maximum(
            base_wait + alpha * n_miss + gamma * contention + delta * steal,
            0.0)
        start = clock
        arrivals = start + compute + wait
        for i in range(n):
            stats.nodes[i].add(TimeCategory.COMPUTE, float(compute[i]))
            stats.nodes[i].add(TimeCategory.REMOTE_WAIT, float(wait[i]))
        if step.pushes is not None:
            arrivals = _pushes(step.pushes, arrivals, stats, cfg, probe)
        release = float(np.max(arrivals)) + bar
        for i in range(n):
            stats.nodes[i].add(TimeCategory.SYNCH, release - float(arrivals[i]))
        clock = release
        stats.phases.append(PhaseBreakdown(
            step.name, step.directive, start, release,
            misses=int(n_miss.sum()),
            hits=int(step.accesses.sum() - n_miss.sum()),
            messages=step.messages,
            cycles=cycle_delta(),
        ))
        features.append((float(n_miss.sum()), float(contention.sum()),
                         float(steal.sum())))

    stats.wall_time = clock
    stats.total_remote_requests = walk.total_requests
    stats.schedules_degraded = walk.degraded
    for name, column in walk.counters.items():
        for node, total in zip(stats.nodes, column.tolist()):
            setattr(node, name, total)
    return stats, features


def _presend(step, stats, cfg, start, probe):
    n = len(step.programs)
    h = float(cfg.handler_cost)
    e = float(cfg.presend_entry_cost)
    recall_cost = 2.0 * cfg.message_cost(cfg.block_size) + 2.0 * h
    messages = iter(zip(step.dst.tolist(), step.count.tolist()))
    send_done = [start] * n
    inbound = {}
    seq = 0
    for home in range(n):
        cursor = start
        for t, code in enumerate(step.programs[home].tolist()):
            assert (code in (_INV, _SEND)) == (t in step.tokens[home])
            if code == _ENTRY:
                cursor += e
            elif code == _RECALL:
                cursor += recall_cost
            elif code == _INV:
                dst, _ = next(messages)
                inbound.setdefault(dst, []).append(
                    (cursor + cfg.message_cost(0), home, seq, h))
                seq += 1
                cursor += e
            else:
                assert code == _SEND
                dst, count = next(messages)
                payload = count * cfg.block_size
                if count > 1:
                    flight = cfg.bulk_message_cost(payload)
                    install = h + e * count
                    probe["bulk_sends"] = probe.get("bulk_sends", 0) + 1
                else:
                    flight = cfg.message_cost(payload)
                    install = h
                inbound.setdefault(dst, []).append(
                    (cursor + flight, home, seq, install))
                seq += 1
                cursor += h
        send_done[home] = cursor
    assert seq == len(step.count)

    install_busy = [start] * n
    for dst, queue in inbound.items():
        arrivals = [m[0] for m in queue]
        probe["arrival_ties"] = (probe.get("arrival_ties", 0)
                                 + len(arrivals) - len(set(arrivals)))
        busy = start
        for arrival, _src, _seq, cost in sorted(queue):
            busy = max(arrival, busy) + cost
        install_busy[dst] = busy

    completions = [max(send_done[i], install_busy[i], start) for i in range(n)]
    release = max(completions) + cfg.barrier_latency
    for node in stats.nodes:
        node.add(TimeCategory.PREDICTIVE, release - start)
    return release


def _pushes(push, arrivals, stats, cfg, probe):
    h = float(cfg.handler_cost)
    per_msg = cfg.message_cost(cfg.block_size)
    install = h + float(cfg.presend_entry_cost)
    adjusted = arrivals.astype(np.float64).copy()
    install_done = {}
    consumers = iter(push.dst.tolist())
    probe["push_messages"] = probe.get("push_messages", 0) + len(push.dst)
    for j, producer in enumerate(push.producers.tolist()):
        cursor = float(adjusted[producer])
        for _ in range(int(push.runs[j])):
            consumer = next(consumers)
            send = cursor + h
            install_done[consumer] = max(install_done.get(consumer, 0.0),
                                         send + per_msg) + install
            cursor = send
        stats.nodes[producer].add(
            TimeCategory.REMOTE_WAIT, cursor - float(adjusted[producer]))
        adjusted[producer] = cursor
    for consumer, done in install_done.items():
        if done > adjusted[consumer]:
            stats.nodes[consumer].add(
                TimeCategory.REMOTE_WAIT, done - float(adjusted[consumer]))
            adjusted[consumer] = done
    return adjusted
