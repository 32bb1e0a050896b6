"""The packed-key fold against the lexsort fold it replaced.

``LayoutModel.fold`` sorts packed int64 keys; ``fold_reference.fold_phase``
is the multi-key ``np.lexsort`` fold it replaced.  Every ``PhaseFold`` field
must match in dtype, shape and value, on random access streams and on a
real recording at every block size.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import water
from repro.cstar.recording import ProgramRecording, record_program
from repro.model.layout import _BURST_GAP, LayoutModel, PhaseFold, key_widths
from repro.tempest.addrspace import AddressSpace
from repro.util import MachineConfig
from repro.util.errors import ConfigError

from tests.model.fold_reference import fold_phase

PAGE_SIZE = 1024
BLOCK_SIZES = [32, 64, 128, 256, 512, 1024]
#: (element stride in bytes, element count) of each aggregate
AGGREGATES = [(8, 512), (24, 200), (4, 1024)]


class StreamPhase:
    """A recorded phase reduced to what the fold reads: each node's
    ``(aggregate, element, kind)`` columns in op order."""

    def __init__(self, streams):
        self.streams = [
            tuple(np.array(column, dtype=np.int64)
                  for column in (zip(*ops) if ops else ((), (), ())))
            for ops in streams]

    def accesses(self, node):
        return self.streams[node]


def stream_recording(n_nodes, page_homes, phases):
    """A recording of ``phases`` over ``AGGREGATES``, the pages of each
    aggregate dealt to the homes in ``page_homes`` (cyclically)."""
    space = AddressSpace(MachineConfig(n_nodes=n_nodes, page_size=PAGE_SIZE))
    regions = [space.allocate(f"a{i}", stride * count,
                              lambda page: page_homes[page % len(page_homes)])
               for i, (stride, count) in enumerate(AGGREGATES)]
    return ProgramRecording(
        key=None, n_nodes=n_nodes, page_size=PAGE_SIZE,
        agg_names=tuple(r.name for r in regions),
        agg_base=np.array([r.base for r in regions], dtype=np.int64),
        agg_stride=np.array([s for s, _ in AGGREGATES], dtype=np.int64),
        addr_space=space, regions=[],
        events=tuple(("phase", StreamPhase(p)) for p in phases), env=None)


def assert_same_folds(recording, block_size):
    layout = LayoutModel(recording, MachineConfig(
        n_nodes=recording.n_nodes, page_size=recording.page_size,
        block_size=block_size))
    got = layout.fold()
    want = [fold_phase(layout, ph) for ph in recording.phases()]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for f in dataclasses.fields(PhaseFold):
            a, b = getattr(g, f.name), getattr(w, f.name)
            where = f"phase {i} {f.name}"
            assert a.dtype == b.dtype, where
            assert a.shape == b.shape, where
            assert np.array_equal(a, b), where
    return got


@st.composite
def bursts(draw):
    """One access repeated one to four times: a burst on its own, and a
    ping-pong burst when other nodes hit the same block in between."""
    agg = draw(st.integers(0, len(AGGREGATES) - 1))
    # a small element range, so nodes and repeats meet in the same blocks
    elem = draw(st.integers(0, 40))
    return [(agg, elem, draw(st.integers(0, 1)))] * draw(st.integers(1, 4))


#: a node's stream: bursts and spacers; the spacers put the next access to a
#: block on either side of _BURST_GAP
node_streams = st.lists(
    st.one_of(bursts(), st.integers(0, 2 * _BURST_GAP).map(
        lambda gap: [(2, 1000 + i, 0) for i in range(gap)])),
    max_size=8).map(lambda parts: [op for part in parts for op in part])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n_nodes=st.integers(1, 8),
       block_size=st.sampled_from(BLOCK_SIZES))
def test_packed_fold_matches_lexsort_fold(data, n_nodes, block_size):
    page_homes = data.draw(st.lists(st.integers(0, n_nodes - 1),
                                    min_size=1, max_size=4))
    phases = data.draw(st.lists(
        st.lists(node_streams, min_size=n_nodes, max_size=n_nodes),
        min_size=1, max_size=3))
    assert_same_folds(stream_recording(n_nodes, page_homes, phases),
                      block_size)


def test_streams_reach_every_fold_branch():
    # node 0 reads then writes, node 1 writes then reads, node 2 rereads
    # after a gap past _BURST_GAP; nodes 0 and 1 write one block in turns,
    # and node 3 touches nothing
    far = [(2, 1000 + i, 0) for i in range(_BURST_GAP + 1)]
    phases = [[
        [(0, 0, 0), (0, 0, 1), (0, 1, 1), *far, (0, 1, 1)],
        [(0, 1, 1), (0, 1, 0), *far, (0, 0, 1)],
        [(1, 3, 0), *far, (1, 3, 0)],
        [],
    ], [[], [], [], []]]
    folds = assert_same_folds(stream_recording(4, [0, 1, 2, 3], phases), 32)
    assert folds[0].pingpong.any()
    assert len(folds[0].wrote) and len(folds[0].events)
    assert folds[1].events.shape == (0, 4)


@pytest.mark.parametrize("block_size", [32, 64, 128, 256, 512])
def test_recorded_water_folds_match(block_size):
    rec = record_program(water, dict(n=24, iterations=2, work_scale=8.0),
                         n_nodes=4, page_size=512)
    assert_same_folds(rec, block_size)


class TestKeyWidths:
    def test_63_bits_fit(self):
        # 8 nodes: 3 bits; block 2**38 - 1: 38; 2**21 ops: 21; kind: 1
        assert key_widths(8, 2**38 - 1, 2**21) == (3, 38, 21)

    def test_64_bits_raise(self):
        with pytest.raises(ConfigError, match=r"64 bits \(node 3, block 39, "
                           r"kind 1, position 21\)"):
            key_widths(8, 2**38, 2**21)

    def test_fold_raises_on_a_block_too_wide(self):
        # an element 2**55 strides into block ~2**53 at 32 bytes: 54 block
        # bits, 2 node bits, 1 kind bit and 7 position bits make 64
        phase = [[(0, 2**55, 0)] * 100, [], [], []]
        rec = stream_recording(4, [0], [phase])
        with pytest.raises(ConfigError, match="fold key needs 64 bits"):
            LayoutModel(rec, MachineConfig(n_nodes=4, page_size=PAGE_SIZE))
