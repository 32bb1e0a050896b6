"""Tests for trace statistics."""

import pytest

from repro.tempest.machine import PhaseTrace
from repro.tempest.tracestats import TraceStats


def trace(*node_ops):
    return PhaseTrace("t", list(node_ops))


class TestCounting:
    def test_empty(self):
        s = TraceStats.of(trace([], []))
        assert s.accesses == 0
        assert s.unique_blocks == 0
        assert s.phases == 1

    def test_reads_writes_compute(self):
        s = TraceStats.of(trace([("r", 1), ("c", 50.0), ("w", 2)], [("r", 1)]))
        assert s.reads == 2
        assert s.writes == 1
        assert s.compute_cycles == 50.0
        assert s.unique_blocks == 2

    def test_multiple_traces_merge(self):
        s = TraceStats.of([trace([("r", 1)], []), trace([], [("w", 1)])])
        assert s.phases == 2
        assert s.block_nodes[1] == {0, 1}


class TestSharing:
    def test_shared_blocks(self):
        s = TraceStats.of(trace([("r", 1), ("r", 2)], [("r", 1)]))
        assert s.shared_blocks() == [1]

    def test_multi_writer_blocks(self):
        s = TraceStats.of(trace([("w", 5)], [("w", 5)], [("w", 6)]))
        assert s.multi_writer_blocks() == [5]

    def test_sharing_histogram(self):
        s = TraceStats.of(trace([("r", 1), ("r", 2)], [("r", 1)], [("r", 1)]))
        assert s.sharing_histogram() == {1: 1, 3: 1}

    def test_report_renders(self):
        s = TraceStats.of(trace([("r", 1), ("c", 10)], [("w", 1)]))
        text = s.report()
        assert "trace statistics" in text
        assert "sharing degree" in text


class TestOnRealRuns:
    def test_water_trace_shape(self):
        from repro.apps import water
        from repro.core import make_machine
        from repro.util import MachineConfig

        prog = water.build(n=16, iterations=1)
        m = make_machine(MachineConfig(n_nodes=4, page_size=512), "stache")
        m.recorder = session = []
        prog.run(m, optimized=False)
        captured = [ev[1] for ev in session if ev[0] == "phase"]
        stats = TraceStats.of(captured)
        assert stats.phases == 2  # interactions + update
        assert stats.reads > stats.writes
        # every molecule's position row is read by several nodes
        assert len(stats.shared_blocks()) > 0
        # home-only writes: no multi-writer blocks in water's C** version
        assert stats.multi_writer_blocks() == []
