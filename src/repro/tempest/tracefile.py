"""Session recordings: save an application's phase traces, replay anywhere.

The two-pass execution model makes traces first-class: a *session* —
the ordered sequence of ``begin_group`` / ``phase`` / ``end_group`` events
the runtime issued — fully determines the protocol-level behaviour of a run.
This module persists sessions as JSON-lines and replays them on fresh
machines, so one (possibly expensive) value pass can be compared across
many protocols and machine configurations:

    machine.recorder = session = []
    program.run(machine, optimized=True)

    save_session(session, "run.trace")
    for protocol in ("stache", "predictive"):
        m = make_machine(cfg, protocol)
        stats = replay_session(load_session("run.trace"), m)

Note: a recorded session bakes in its directive structure and the *n_nodes*
of the recording machine; replaying needs an equal node count and an
address-space layout with the same block numbering (replay_session can
recreate the regions if they were recorded with the session — see
``record_regions``).
"""

from __future__ import annotations

import json
from itertools import groupby
from pathlib import Path
from typing import Iterable

from repro.sim.stats import RunStats
from repro.tempest.machine import Machine, PhaseTrace
from repro.tempest.tags import AccessTag
from repro.util.errors import SimulationError

#: session event types
SessionEvent = tuple

FORMAT_VERSION = 1


def record_regions(machine: Machine) -> list[dict]:
    """Capture the machine's region layout so replay can recreate homes."""
    regions = []
    for r in machine.addr_space.regions:
        pages = r.size // r.page_size
        regions.append({
            "name": r.name,
            "size": r.size,
            "homes": [r.home_policy(p) for p in range(pages)],
        })
    return regions


def save_session(events: Iterable[SessionEvent], path,
                 regions: list[dict] | None = None) -> None:
    """Write a recorded session to ``path`` as JSON-lines."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps({"version": FORMAT_VERSION,
                             "regions": regions or []}) + "\n")
        for ev in events:
            kind = ev[0]
            if kind == "phase":
                trace: PhaseTrace = ev[1]
                fh.write(json.dumps({
                    "event": "phase",
                    "name": trace.name,
                    "ops": trace.ops,
                }) + "\n")
            elif kind == "begin_group":
                fh.write(json.dumps({"event": "begin_group", "id": ev[1]}) + "\n")
            elif kind == "end_group":
                fh.write(json.dumps({"event": "end_group"}) + "\n")
            else:
                raise SimulationError(f"unknown session event {ev!r}")


def load_session(path) -> tuple[list[SessionEvent], list[dict]]:
    """Read a session file; returns (events, regions).

    A session without a phase event, or a region whose ``homes`` is not a
    non-empty list of node ids, is rejected here with a
    :class:`SimulationError` naming the file (and the region).
    """
    path = Path(path)
    events: list[SessionEvent] = []
    regions: list[dict] = []
    with path.open() as fh:
        header = json.loads(fh.readline())
        if header.get("version") != FORMAT_VERSION:
            raise SimulationError(
                f"unsupported trace format {header.get('version')!r}"
            )
        regions = header.get("regions", [])
        for spec in regions:
            homes = spec.get("homes")
            if not (isinstance(homes, list) and homes and all(
                    type(h) is int and h >= 0 for h in homes)):
                raise SimulationError(
                    f"{path}: region {spec.get('name')!r} needs a non-empty "
                    f"list of node ids as homes, got {homes!r}")
        for line in fh:
            rec = json.loads(line)
            if rec["event"] == "phase":
                ops = [[tuple(op) for op in node_ops] for node_ops in rec["ops"]]
                events.append(("phase", PhaseTrace(rec["name"], ops)))
            elif rec["event"] == "begin_group":
                events.append(("begin_group", rec["id"]))
            elif rec["event"] == "end_group":
                events.append(("end_group",))
            else:
                raise SimulationError(f"unknown record {rec!r}")
    if not any(ev[0] == "phase" for ev in events):
        raise SimulationError(f"{path}: session holds no phase event")
    return events, regions


def restore_regions(machine: Machine, regions: list[dict]) -> None:
    """Recreate recorded regions (and initial home ownership) on a machine."""
    space = machine.addr_space
    per_page = machine.config.blocks_per_page()
    for spec in regions:
        homes = spec["homes"]
        region = space.allocate(
            spec["name"], spec["size"],
            home_policy=lambda p, homes=homes: homes[min(p, len(homes) - 1)],
        )
        block = space.block_of(region.base)
        # one tag write per run of pages sharing a home
        for home, pages in groupby(space.page_homes(region)):
            count = len(list(pages)) * per_page
            machine.nodes[home].tags.set_run(block, count, AccessTag.READ_WRITE)
            block += count


def replay_session(
    session: tuple[list[SessionEvent], list[dict]] | list[SessionEvent],
    machine: Machine,
    regions: list[dict] | None = None,
    finish: bool = True,
) -> RunStats:
    """Replay a recorded session on ``machine`` and return its statistics.

    ``finish=False`` skips the end-of-run close-out so the machine can be
    continued with more events, or snapshotted by the tests' checkpoint
    oracle (``tests/checkpoint.py``); resuming a restored machine should
    also pass ``regions=[]`` — the checkpoint already restored the region
    layout and tag state, and re-running ``restore_regions`` would
    clobber it.
    """
    if isinstance(session, tuple):
        events, rec_regions = session
        regions = regions if regions is not None else rec_regions
    else:
        events = session
    if regions:
        restore_regions(machine, regions)
    for ev in events:
        kind = ev[0]
        if kind == "begin_group":
            machine.begin_group(ev[1])
        elif kind == "phase":
            trace: PhaseTrace = ev[1]
            if len(trace.ops) != machine.config.n_nodes:
                raise SimulationError(
                    f"session was recorded on {len(trace.ops)} nodes; this "
                    f"machine has {machine.config.n_nodes}"
                )
            machine.run_phase(trace)
        elif kind == "end_group":
            machine.end_group()
        else:
            raise SimulationError(f"unknown session event {ev!r}")
    if not finish:
        return machine.stats
    return machine.finish()
