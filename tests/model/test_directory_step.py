"""Every single-request transition: the simulator against the walk.

``TestExactCounters`` compares whole workloads.  Here each stable directory
entry of one block homed at node 0 on 3 nodes meets each requester and each
access that misses, once: the simulator serves the fault through
``protocol.fault`` and an engine drain, the walk runs ``_classify`` (the
directory step ``demand -> reclaim -> grant``) on a copy of the entry.
Both must leave the same entry and the same per-node message counts.  An
isolated miss meets no contention, so its fault latency in the simulator
is also its coefficient vector priced at the machine's costs.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import make_machine
from repro.model.predictor import _Walker
from repro.protocols.directory import DirEntry, DirState, NodeSet
from repro.protocols.writeupdate import UPDATE_SHARED
from repro.tempest.tags import AccessTag
from repro.util import MachineConfig

from tests.oracle import check_entry

N_NODES, HOME = 3, 0
CFG = MachineConfig(n_nodes=N_NODES, page_size=512)
REMOTE = [n for n in range(N_NODES) if n != HOME]
SHARER_SETS = [(1,), (2,), (1, 2)]

#: (state, owner, sharers): every stable entry of a block homed at node 0
STACHE_ENTRIES = ([(DirState.IDLE, None, ())]
                  + [(DirState.SHARED, None, s) for s in SHARER_SETS]
                  + [(DirState.EXCLUSIVE, o, ()) for o in REMOTE])
UPDATE_ENTRIES = ([(DirState.IDLE, None, ())]
                  + [(UPDATE_SHARED, None, s) for s in SHARER_SETS])


def make_entry(spec):
    state, owner, sharers = spec
    return DirEntry(block=0, home=HOME, state=state, owner=owner,
                    sharers=NodeSet(sharers))


def misses(entries, kinds):
    """Every (entry, requester, kind) whose access the entry does not
    already permit."""
    return [(spec, node, kind) for spec in entries
            for node in range(N_NODES) for kind in kinds
            if not make_entry(spec).permits(node, kind)]


def case_id(case):
    (state, owner, sharers), node, kind = case
    held = (f"owner{owner}" if owner is not None
            else "s" + "".join(map(str, sharers)) if sharers else "")
    return f"{state}{held}-{kind}{node}"


class FakeProc:
    """The faulting processor: ``protocol.fault`` reads its node id and
    completes the fault through ``resume``."""

    def __init__(self, node):
        self.node = SimpleNamespace(id=node)
        self.resumed_at = None

    def resume(self, t):
        self.resumed_at = t


def simulate(protocol, spec, node, kind):
    """One fault against ``spec`` on a fresh machine whose tags match it."""
    m = make_machine(CFG, protocol)
    region = m.addr_space.allocate("x", CFG.page_size,
                                   home_policy=lambda p: HOME)
    block = m.addr_space.block_of(region.base)
    state, owner, sharers = spec
    home_tag = {DirState.SHARED: AccessTag.READ_ONLY,
                DirState.EXCLUSIVE: AccessTag.INVALID}.get(
                    state, AccessTag.READ_WRITE)
    m.nodes[HOME].tags.set(block, home_tag)
    for sharer in sharers:
        m.nodes[sharer].tags.set(block, AccessTag.READ_ONLY)
    if owner is not None:
        m.nodes[owner].tags.set(block, AccessTag.READ_WRITE)
    entry = m.protocol.directory.entry(block)
    entry.state, entry.owner, entry.sharers = state, owner, NodeSet(sharers)
    proc = FakeProc(node)
    m.protocol.fault(proc, block, kind, 0.0)
    m.engine.run()
    assert proc.resumed_at is not None, "the fault never completed"
    assert not m.protocol.outstanding
    return m, entry, proc.resumed_at


def walk(protocol, spec, node, kind):
    """The same miss through the walk's classifier, on a copy of the entry."""
    walker = _Walker(SimpleNamespace(n_nodes=N_NODES),
                     SimpleNamespace(block_size=CFG.block_size,
                                     home=lambda b: HOME),
                     protocol, False, None)
    entry = make_entry(spec)
    coeff = np.zeros((N_NODES, 5))
    services = np.zeros((N_NODES, N_NODES), dtype=np.int64)
    walker._classify(entry, node, kind, HOME, coeff, services)
    return walker, entry, coeff[node]


def shape(entry):
    return entry.state, entry.owner, sorted(entry.sharers)


def assert_same_step(protocol, case):
    spec, node, kind = case
    m, sim_entry, latency = simulate(protocol, spec, node, kind)
    walker, walk_entry, vec = walk(protocol, spec, node, kind)
    assert shape(sim_entry) == shape(walk_entry)
    for field in ("messages_sent", "bytes_sent"):
        assert [getattr(ns, field) for ns in m.stats.nodes] == (
            walker.counters[field]), field
    basis = (CFG.fault_cost, CFG.msg_latency,
             CFG.message_cost(CFG.block_size), CFG.handler_cost,
             CFG.directory_lookup_cost)
    assert latency == pytest.approx(float(vec @ basis))
    return sim_entry


STACHE_CASES = misses(STACHE_ENTRIES, "rw")
UPDATE_CASES = misses(UPDATE_ENTRIES, "r")


def test_every_stable_miss_is_covered():
    # IDLE: 2 remote reads + 2 remote writes; SHARED {1}, {2}: 1 read,
    # 3 writes each; SHARED {1,2}: 3 writes; EXCLUSIVE: 2 reads, 2 writes
    # per owner (the owner itself never misses)
    assert len(STACHE_CASES) == 4 + 2 * 4 + 3 + 2 * 4
    # write-update: every consumer not yet registered reads once
    assert len(UPDATE_CASES) == 2 + 1 + 1 + 0


@pytest.mark.parametrize("case", STACHE_CASES, ids=map(case_id, STACHE_CASES))
def test_stache_step_matches_walk(case):
    check_entry(assert_same_step("stache", case))


@pytest.mark.parametrize("case", UPDATE_CASES, ids=map(case_id, UPDATE_CASES))
def test_write_update_read_matches_walk(case):
    assert_same_step("write-update", case)
