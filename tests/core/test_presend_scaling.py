"""Pre-send planning looks each schedule entry's home up once per group.

Each home pre-sends only the blocks it is home for (§3.4).  Slicing the
schedule by home is one pass over it, not one pass per home: on an n-node
machine an S-entry schedule costs S home lookups, in the simulator's
``begin_group`` and in the model walk's ``_presend`` alike, where a per-home
scan would cost n × S.
"""

from types import SimpleNamespace

from repro.core import make_machine
from repro.model.predictor import _Walker
from repro.tempest.tags import AccessTag
from repro.util import MachineConfig

from tests.helpers import run_one_phase

N_NODES, ENTRIES = 8, 64


class CountingHome:
    """A ``home_of`` that counts its calls."""

    def __init__(self, home_of):
        self.home_of = home_of
        self.calls = 0

    def __call__(self, block: int) -> int:
        self.calls += 1
        return self.home_of(block)


def test_simulator_presend_looks_up_each_entry_once():
    cfg = MachineConfig(n_nodes=N_NODES, page_size=256)
    m = make_machine(cfg, "predictive")
    region = m.addr_space.allocate("data", ENTRIES * cfg.block_size)
    first = m.addr_space.block_of(region.base)
    blocks = range(first, first + ENTRIES)
    for b in blocks:
        m.nodes[m.home(b)].tags.set(b, AccessTag.READ_WRITE)
    # group 1: the node after each block's home reads it (S remote misses);
    # group 2: the home writes it back, invalidating the reader's copy
    readers: dict[int, list] = {}
    writers: dict[int, list] = {}
    for b in blocks:
        readers.setdefault((m.home(b) + 1) % N_NODES, []).append(("r", b))
        writers.setdefault(m.home(b), []).append(("w", b))
    for directive, ops in ((1, readers), (2, writers)):
        m.begin_group(directive)
        run_one_phase(m, ops)
        m.end_group()
    assert len(m.protocol.life.store[1]) == ENTRIES
    assert len({m.home(b) for b in blocks}) == N_NODES  # homes spread

    counting = CountingHome(m.home)
    m.home = counting  # the directory keeps its own lookup
    m.begin_group(1)
    assert counting.calls == ENTRIES
    assert m.protocol.presend_blocks == ENTRIES
    m.end_group()


def test_model_walk_presend_looks_up_each_entry_once():
    def home_of(b):
        return b % N_NODES

    walker = _Walker(SimpleNamespace(n_nodes=N_NODES),
                     SimpleNamespace(block_size=32, home=home_of),
                     "predictive", True, None)
    sched = walker.life.store.fetch(1)
    for b in range(ENTRIES):
        sched.record(b, (b + 1) % N_NODES, "r")

    counting = CountingHome(home_of)
    walker.layout = SimpleNamespace(block_size=32, home=counting)
    step = walker._presend(sched)
    assert counting.calls == ENTRIES
    assert int(step.count.sum()) == ENTRIES
