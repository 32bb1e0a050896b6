"""Deterministic whole-machine checkpoints (snapshot / restore / restart).

A checkpoint captures **everything** that influences a run's future: engine
clock and sequence counter, per-node tag tables and statistics, directory
entries, predictive communication schedules (in LRU order, with their
degradation bookkeeping), the fault injector's RNG state and content-keyed
bookkeeping, reliable-transport channel sequence state, and the crash
controller's incarnation numbers.  Because the simulator is a pure function
of this state, restoring a snapshot into a fresh machine and replaying the
remaining session is **bit-identical** to the uninterrupted run — the tests
assert equality of end-of-run snapshots, statistics, and memory images.

Checkpoints are taken at *quiescent points* only — a released phase barrier
outside any in-flight recovery, where the invariant monitor already asserts
nothing is in flight.  :func:`snapshot_machine` enforces this and raises
:class:`~repro.util.errors.SimulationError` otherwise; checkpointing
mid-phase is not supported (and not needed: phases are the unit of replay).

The on-disk format is versioned JSON (:data:`CHECKPOINT_VERSION`); snapshots
are canonical — two machines in identical states produce equal dicts — so
``snapshot_machine(a) == snapshot_machine(b)`` is the determinism oracle.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.faults.crash import CrashRecord
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim.stats import NodeStats, PhaseBreakdown, TimeCategory
from repro.util.atomicio import atomic_write_json
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.tempest.machine import Machine

CHECKPOINT_VERSION = 1

#: NodeStats counter fields (everything but the node id and the cycles map);
#: derived from the dataclass so new counters are checkpointed automatically.
_NODE_COUNTERS = tuple(
    f.name for f in dataclasses.fields(NodeStats)
    if f.name not in ("node", "cycles")
)


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise SimulationError(
            f"checkpoint requires a quiescent machine: {what}"
        )


def _assert_quiescent(machine: "Machine") -> None:
    """A snapshot is only meaningful when nothing is in flight."""
    _require(not machine._phase_running, "a phase is running")
    _require(machine.engine.pending == 0,
             f"{machine.engine.pending} engine event(s) still queued")
    outstanding = getattr(machine.protocol, "outstanding", {})
    _require(not outstanding,
             f"outstanding faults: {sorted(outstanding)}")
    deferred = getattr(machine.protocol, "_deferred", {})
    _require(not deferred,
             f"deferred cache messages: {sorted(deferred)}")
    transport = machine._transport
    if transport is not None:
        _require(transport.unacked == 0,
                 f"{transport.unacked} unacked transport send(s)")
        _require(transport.held_back == 0,
                 f"{transport.held_back} held-back message(s)")
    ctl = machine.crash_controller
    if ctl is not None:
        _require(not ctl.down, f"nodes still down: {sorted(ctl.down)}")


# -- snapshot ------------------------------------------------------------------


def snapshot_machine(machine: "Machine") -> dict:
    """Capture the machine's complete state as a canonical JSON-ready dict."""
    _assert_quiescent(machine)
    from repro.tempest.tracefile import record_regions

    injector = machine.fault_injector
    snap = {
        "version": CHECKPOINT_VERSION,
        "protocol": machine.protocol.name,
        "config": dataclasses.asdict(machine.config),
        "plan": injector.plan.to_dict() if injector is not None else None,
        "regions": record_regions(machine),
        "machine": {
            "clock": machine.clock,
            "phase_index": machine.phase_index,
            "current_directive": machine.current_directive,
            "group_accessed": sorted(map(list, machine.group_accessed)),
            "phase_writes": sorted(map(list, machine.phase_writes)),
            "phase_cycle_marks": {
                c.value: machine._phase_cycle_marks[c] for c in TimeCategory
            },
        },
        "engine": {
            "now": machine.engine.now,
            "seq": machine.engine._seq,
            "dispatched": machine.engine._dispatched,
        },
        "network": {
            "next_msg_id": machine.network._next_msg_id,
            "messages_delivered": machine.network.messages_delivered,
            "bytes_delivered": machine.network.bytes_delivered,
            "messages_dropped": machine.network.messages_dropped,
            "messages_duplicated": machine.network.messages_duplicated,
            "messages_fenced": machine.network.messages_fenced,
        },
        "nodes": [_snapshot_node(node) for node in machine.nodes],
        "stats": {
            "wall_time": machine.stats.wall_time,
            "total_remote_requests": machine.stats.total_remote_requests,
            "schedules_degraded": machine.stats.schedules_degraded,
            "phases": [dataclasses.asdict(p) for p in machine.stats.phases],
        },
        "directory": _snapshot_directory(machine),
        "predictive": _snapshot_predictive(machine),
        "write_update": _snapshot_write_update(machine),
        "injector": _snapshot_injector(machine),
        "transport": _snapshot_transport(machine),
        "crash": _snapshot_crash(machine),
    }
    return snap


def _snapshot_node(node) -> dict:
    return {
        "tags": [[b, int(t)] for b, t in node.tags.items()],
        "handler_busy_until": node.handler_busy_until,
        "cycles": {c.value: node.stats.cycles[c] for c in TimeCategory},
        "counters": {name: getattr(node.stats, name)
                     for name in _NODE_COUNTERS},
    }


def _snapshot_directory(machine: "Machine") -> list[dict]:
    directory = getattr(machine.protocol, "directory", None)
    if directory is None:
        return []
    # insertion order is preserved: known() iterates it, and message-level
    # repair walks must replay in the same order after a restore
    return [
        {
            "block": e.block,
            "home": e.home,
            "state": e.state,
            "sharers": sorted(e.sharers),
            "owner": e.owner,
            "in_service": e.in_service,
            "acks_needed": e.acks_needed,
            "pending": [[p.kind, p.requester] for p in e.pending],
        }
        for e in directory.known()
    ]


def _snapshot_predictive(machine: "Machine") -> dict | None:
    protocol = machine.protocol
    life = getattr(protocol, "life", None)
    if life is None:
        return None
    store = life.store
    return {
        # least- to most-recently-used, so insert() rebuilds the LRU order
        "schedules": [_snapshot_schedule(s) for s in store.values()],
        "evictions": store.evictions,
        # cooldowns of evicted degraded schedules: relearning after a
        # resume must serve the same remaining penance as the original run
        "evicted_cooldowns": sorted(
            [d, c] for d, c in store._evicted_cooldowns.items()
        ),
        "pending_judgment": [
            [dst, block, sched.directive_id,
             store.get(sched.directive_id) is sched]
            for (dst, block), sched in life.pending.items()
        ],
        "presented": sorted(map(list, life.presented)),
        "suppress_learning": life.suppress_learning,
        "presend_messages": protocol.presend_messages,
        "presend_blocks": protocol.presend_blocks,
    }


def _snapshot_schedule(sched) -> dict:
    return {
        "directive_id": sched.directive_id,
        "instance": sched.instance,
        "entries": [
            {
                "block": e.block,
                "kind": e.kind.value,
                "readers": sorted(e.readers),
                "writer": e.writer,
                "instance": e.instance,
                "pre_conflict_kind": (e.pre_conflict_kind.value
                                      if e.pre_conflict_kind else None),
            }
            for e in sched.entries.values()
        ],
        "additions_per_instance": list(sched.additions_per_instance),
        "added_this_instance": sched._added_this_instance,
        "mispredict_rate": sched.mispredict_rate,
        "mispredict_samples": sched.mispredict_samples,
        "wasted_streak": sched.wasted_streak,
        "wasted_this_instance": sched._wasted_this_instance,
        "cooldown": sched.cooldown,
    }


def _snapshot_write_update(machine: "Machine") -> dict | None:
    protocol = machine.protocol
    if not hasattr(protocol, "updates_pushed"):
        return None
    return {
        "updates_pushed": protocol.updates_pushed,
        "update_messages": protocol.update_messages,
    }


def _snapshot_injector(machine: "Machine") -> dict | None:
    inj = machine.fault_injector
    if inj is None:
        return None
    state = inj.rng.getstate()
    return {
        "rng": [state[0], list(state[1]), state[2]],
        "injected": [ev.to_dict() for ev in inj.injected],
        "msg_occurrence": [[list(k), v]
                           for k, v in inj._msg_occurrence.items()],
        "service_index": [[k, v] for k, v in inj._service_index.items()],
        "group_index": [[k, v] for k, v in inj._group_index.items()],
        "crash_count": inj._crash_count,
    }


def _snapshot_transport(machine: "Machine") -> list | None:
    transport = machine._transport
    if transport is None:
        return None
    # quiescence guarantees pending/held are empty; only the per-channel
    # sequence counters carry forward
    return sorted(
        [src, dst, ch.next_out, ch.next_expected]
        for (src, dst), ch in transport._channels.items()
    )


def _snapshot_crash(machine: "Machine") -> dict | None:
    ctl = machine.crash_controller
    if ctl is None:
        return None
    return {
        "incarnations": list(ctl.incarnations),
        "phase": ctl._phase,
        "log": [dataclasses.asdict(r) for r in ctl.log],
        "detections": machine.watchdog.detections,
    }


# -- restore -------------------------------------------------------------------


def restore_machine(snap: dict, policy=None) -> "Machine":
    """Build a fresh machine in exactly the snapshotted state.

    Replaying the remainder of the session on the returned machine is
    bit-identical to the uninterrupted run: every counter, clock, RNG state,
    and structure iteration order is reproduced.  ``policy`` is handed to
    :func:`~repro.core.factory.make_machine` unchanged: a snapshot does not
    record how ties were broken before it, so a run may resume under a
    different tie-break policy than it started with.
    """
    _check_version(snap)
    from repro.core.factory import make_machine
    from repro.util.config import MachineConfig

    machine = make_machine(MachineConfig(**snap["config"]), snap["protocol"],
                           policy=policy)
    return restore_into(machine, snap)


def _check_version(snap: dict) -> None:
    if snap.get("version") != CHECKPOINT_VERSION:
        raise SimulationError(
            f"unsupported checkpoint version {snap.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )


def restore_into(machine: "Machine", snap: dict) -> "Machine":
    """Load ``snap`` into ``machine`` — freshly built, never run, with the
    snapshot's config and protocol — and return it.

    The state-loading half of :func:`restore_machine`, for a caller that
    builds the machine itself: checkpoints are representation-independent,
    so the differential suite restores production snapshots onto its
    reference machine (and back) through this.
    """
    _check_version(snap)
    from repro.tempest.tracefile import restore_regions

    restore_regions(machine, snap["regions"])
    if snap["plan"] is not None:
        FaultPlan.from_dict(snap["plan"]).install(machine)

    m = snap["machine"]
    machine.clock = m["clock"]
    machine.phase_index = m["phase_index"]
    machine.current_directive = m["current_directive"]
    # in-place: the processors cache these sets by identity
    machine.group_accessed.clear()
    machine.group_accessed.update(tuple(p) for p in m["group_accessed"])
    machine.phase_writes.clear()
    machine.phase_writes.update(tuple(p) for p in m["phase_writes"])
    machine._phase_cycle_marks = {
        TimeCategory(k): v for k, v in m["phase_cycle_marks"].items()
    }

    e = snap["engine"]
    machine.engine.now = e["now"]
    machine.engine._seq = e["seq"]
    machine.engine._dispatched = e["dispatched"]

    n = snap["network"]
    net = machine.network
    net._next_msg_id = n["next_msg_id"]
    net.messages_delivered = n["messages_delivered"]
    net.bytes_delivered = n["bytes_delivered"]
    net.messages_dropped = n["messages_dropped"]
    net.messages_duplicated = n["messages_duplicated"]
    net.messages_fenced = n["messages_fenced"]

    for node, rec in zip(machine.nodes, snap["nodes"]):
        node.tags.clear()
        for block, tag in rec["tags"]:
            node.tags.set(block, _TAG_BY_VALUE[tag])
        node.handler_busy_until = rec["handler_busy_until"]
        for c in TimeCategory:
            node.stats.cycles[c] = rec["cycles"][c.value]
        for name, value in rec["counters"].items():
            setattr(node.stats, name, value)

    s = snap["stats"]
    machine.stats.wall_time = s["wall_time"]
    machine.stats.total_remote_requests = s["total_remote_requests"]
    machine.stats.schedules_degraded = s["schedules_degraded"]
    machine.stats.phases = [PhaseBreakdown(**p) for p in s["phases"]]

    _restore_directory(machine, snap["directory"])
    if snap["predictive"] is not None:
        _restore_predictive(machine, snap["predictive"])
    if snap["write_update"] is not None:
        machine.protocol.updates_pushed = snap["write_update"]["updates_pushed"]
        machine.protocol.update_messages = snap["write_update"]["update_messages"]
    if snap["injector"] is not None:
        _restore_injector(machine, snap["injector"])
    if snap["transport"] is not None:
        _restore_transport(machine, snap["transport"])
    if snap["crash"] is not None:
        _restore_crash(machine, snap["crash"])
    return machine


_TAG_BY_VALUE: dict = {}


def _init_tag_table() -> None:
    from repro.tempest.tags import AccessTag

    for tag in AccessTag:
        _TAG_BY_VALUE[int(tag)] = tag


_init_tag_table()


def _restore_directory(machine: "Machine", records: list[dict]) -> None:
    from collections import deque

    from repro.protocols.directory import DirEntry, NodeSet, PendingRequest

    directory = getattr(machine.protocol, "directory", None)
    if directory is None:
        return
    directory._entries.clear()
    for rec in records:
        directory._entries[rec["block"]] = DirEntry(
            block=rec["block"],
            home=rec["home"],
            state=rec["state"],
            sharers=NodeSet(rec["sharers"]),
            owner=rec["owner"],
            in_service=rec["in_service"],
            acks_needed=rec["acks_needed"],
            pending=deque(PendingRequest(kind=k, requester=r)
                          for k, r in rec["pending"]),
        )


def _restore_predictive(machine: "Machine", rec: dict) -> None:
    from repro.core.schedule import CommSchedule, EntryKind, ScheduleEntry

    protocol = machine.protocol
    life = protocol.life
    store = life.store
    store.evictions = 0
    for sdict in rec["schedules"]:
        sched = CommSchedule(sdict["directive_id"])
        sched.instance = sdict["instance"]
        for ent in sdict["entries"]:
            sched.entries[ent["block"]] = ScheduleEntry(
                block=ent["block"],
                kind=EntryKind(ent["kind"]),
                readers=set(ent["readers"]),
                writer=ent["writer"],
                instance=ent["instance"],
                pre_conflict_kind=(EntryKind(ent["pre_conflict_kind"])
                                   if ent["pre_conflict_kind"] else None),
            )
        sched.additions_per_instance = list(sdict["additions_per_instance"])
        sched._added_this_instance = sdict["added_this_instance"]
        sched.mispredict_rate = sdict["mispredict_rate"]
        sched.mispredict_samples = sdict["mispredict_samples"]
        sched.wasted_streak = sdict["wasted_streak"]
        sched._wasted_this_instance = sdict["wasted_this_instance"]
        sched.cooldown = sdict["cooldown"]
        store.insert(sched)
    store.evictions = rec["evictions"]
    store._evicted_cooldowns = {
        d: c for d, c in rec.get("evicted_cooldowns", [])
    }
    # Pairs owned by a live schedule point at the store's object (degrade
    # filters compare identity); pairs whose owner was evicted get one
    # dangling stand-in per directive id — behaviourally identical, since an
    # evicted schedule's mutations are unobservable (it is never fetched or
    # judged again, only note_waste/note_useful on it, which feed nothing).
    dangling: dict[int, object] = {}
    life.pending = {}
    for dst, block, directive_id, live in rec["pending_judgment"]:
        if live:
            owner = store[directive_id]
        else:
            owner = dangling.get(directive_id)
            if owner is None:
                owner = dangling[directive_id] = CommSchedule(directive_id)
        life.pending[(dst, block)] = owner
    life.presented = {tuple(p) for p in rec["presented"]}
    life.suppress_learning = rec["suppress_learning"]
    protocol.presend_messages = rec["presend_messages"]
    protocol.presend_blocks = rec["presend_blocks"]


def _restore_injector(machine: "Machine", rec: dict) -> None:
    inj = machine.fault_injector
    st = rec["rng"]
    inj.rng.setstate((st[0], tuple(st[1]), st[2]))
    inj.injected = []
    inj._last_msg_fault = {}
    for ev in rec["injected"]:
        inj._record(FaultEvent.from_dict(ev))
    inj._msg_occurrence.clear()
    for key, count in rec["msg_occurrence"]:
        inj._msg_occurrence[tuple(key)] = count
    inj._service_index.clear()
    for node, count in rec["service_index"]:
        inj._service_index[node] = count
    inj._group_index.clear()
    for directive, count in rec["group_index"]:
        inj._group_index[directive] = count
    inj._crash_count = rec["crash_count"]


def _restore_transport(machine: "Machine", channels: list) -> None:
    transport = machine._transport
    if transport is None:  # pragma: no cover - plan mismatch is a bug
        raise SimulationError(
            "checkpoint has transport channels but the restored plan "
            "installed no reliable transport"
        )
    for src, dst, next_out, next_expected in channels:
        ch = transport._channel(src, dst)
        ch.next_out = next_out
        ch.next_expected = next_expected


def _restore_crash(machine: "Machine", rec: dict) -> None:
    ctl = machine.crash_controller
    if ctl is None:  # pragma: no cover - plan mismatch is a bug
        raise SimulationError(
            "checkpoint has crash-controller state but the restored plan "
            "installed no crash controller"
        )
    ctl.incarnations = list(rec["incarnations"])
    ctl._phase = rec["phase"]
    ctl.log = [CrashRecord(**r) for r in rec["log"]]
    machine.watchdog.detections = rec["detections"]


# -- files ---------------------------------------------------------------------


def save_checkpoint(machine: "Machine", path) -> dict:
    """Snapshot ``machine`` and write it to ``path`` as JSON; returns the
    snapshot dict.  The write is atomic (write-temp + fsync + rename), so
    a crash mid-save leaves the previous checkpoint intact, never a torn
    file."""
    snap = snapshot_machine(machine)
    atomic_write_json(Path(path), snap, indent=1)
    return snap


def load_checkpoint(path):
    """Read a snapshot written by :func:`save_checkpoint`.

    JSON round-trips lists where the in-memory snapshot held lists already,
    so a loaded snapshot compares equal to a fresh one and restores the same
    machine.
    """
    with Path(path).open(encoding="utf-8") as fh:
        return json.load(fh)
