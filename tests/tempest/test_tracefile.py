"""Tests for session recording, persistence, and cross-protocol replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_machine
from repro.tempest.machine import PhaseTrace
from repro.tempest.tags import AccessTag
from repro.tempest.tracefile import (
    load_session,
    record_regions,
    replay_session,
    restore_regions,
    save_session,
)
from repro.util import ConfigError, MachineConfig, SimulationError

from tests.helpers import small_machine


def record_water(n_nodes=4):
    """Run Water once with a recorder attached; return (events, regions)."""
    from repro.apps import water

    prog = water.build(n=16, iterations=2)
    m = make_machine(MachineConfig(n_nodes=n_nodes, page_size=512), "stache")
    m.recorder = events = []
    prog.run(m, optimized=True)
    return events, record_regions(m), m.finish()


class TestRecording:
    def test_recorder_captures_events(self):
        events, _, _ = record_water()
        kinds = [e[0] for e in events]
        assert "phase" in kinds
        assert "begin_group" in kinds
        assert "end_group" in kinds
        # groups are balanced
        assert kinds.count("begin_group") == kinds.count("end_group")

    def test_recorder_off_by_default(self):
        m, b = small_machine()
        assert m.recorder is None


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        events, regions, _ = record_water()
        path = tmp_path / "session.trace"
        save_session(events, path, regions)
        loaded_events, loaded_regions = load_session(path)
        assert len(loaded_events) == len(events)
        assert loaded_regions == regions
        for orig, loaded in zip(events, loaded_events):
            assert orig[0] == loaded[0]
            if orig[0] == "phase":
                assert loaded[1].ops == [
                    [tuple(op) for op in ops] for ops in orig[1].ops
                ]

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"version": 99}\n')
        with pytest.raises(SimulationError):
            load_session(path)


GOLDEN = __file__.rsplit("/", 1)[0] + "/data/golden.trace"

#: the session serialized in the checked-in golden file
GOLDEN_EVENTS = [
    ("begin_group", 1),
    ("phase", PhaseTrace("produce", [[("w", 4), ("c", 100), ("w", 5)],
                                     [("c", 50)]])),
    ("end_group",),
    ("begin_group", 1),
    ("phase", PhaseTrace("consume", [[("c", 10)],
                                     [("r", 4), ("r", 5)]])),
    ("end_group",),
]
GOLDEN_REGIONS = [{"name": "data", "size": 256, "homes": [0, 0]}]


class TestGoldenTrace:
    """The on-disk format is stable: write -> read -> re-write is identity,
    pinned against a checked-in golden file so format drift is loud."""

    def test_write_matches_golden(self, tmp_path):
        path = tmp_path / "fresh.trace"
        save_session(GOLDEN_EVENTS, path, regions=GOLDEN_REGIONS)
        with open(GOLDEN) as fh:
            assert path.read_text() == fh.read()

    def test_round_trip_is_byte_identical(self, tmp_path):
        events, regions = load_session(GOLDEN)
        rewritten = tmp_path / "rewritten.trace"
        save_session(events, rewritten, regions=regions)
        with open(GOLDEN, "rb") as fh:
            assert rewritten.read_bytes() == fh.read()

    def test_double_round_trip_is_stable(self, tmp_path):
        """Load -> save -> load -> save reaches a fixed point immediately."""
        first = tmp_path / "first.trace"
        events, regions = load_session(GOLDEN)
        save_session(events, first, regions=regions)
        second = tmp_path / "second.trace"
        events2, regions2 = load_session(first)
        save_session(events2, second, regions=regions2)
        assert first.read_bytes() == second.read_bytes()

    def test_golden_session_content(self):
        events, regions = load_session(GOLDEN)
        assert regions == GOLDEN_REGIONS
        assert [e[0] for e in events] == [e[0] for e in GOLDEN_EVENTS]
        produce = events[1][1]
        assert produce.name == "produce"
        assert produce.ops == [[("w", 4), ("c", 100), ("w", 5)], [("c", 50)]]

    def test_golden_replays_clean(self):
        """The golden session actually runs (and satisfies the invariant
        monitor) on a 2-node machine."""
        from repro.verify import InvariantMonitor

        cfg = MachineConfig(n_nodes=2, block_size=32, page_size=128)
        m = make_machine(cfg, "stache")
        monitor = InvariantMonitor().attach(m)
        stats = replay_session(load_session(GOLDEN), m)
        assert stats.misses > 0  # node 1's reads fault to node 0's home
        assert monitor.checks_run == 2


class TestReplay:
    def test_replay_reproduces_original_run(self, tmp_path):
        events, regions, original = record_water()
        path = tmp_path / "session.trace"
        save_session(events, path, regions)
        m = make_machine(MachineConfig(n_nodes=4, page_size=512), "stache")
        stats = replay_session(load_session(path), m)
        assert stats.wall_time == original.wall_time
        assert stats.misses == original.misses

    def test_replay_under_different_protocol(self, tmp_path):
        """One value pass, many protocols: the point of the facility."""
        events, regions, baseline = record_water()
        path = tmp_path / "session.trace"
        save_session(events, path, regions)
        session = load_session(path)

        m_pred = make_machine(MachineConfig(n_nodes=4, page_size=512),
                              "predictive")
        pred = replay_session(session, m_pred)
        assert pred.misses < baseline.misses
        assert pred.wall_time != baseline.wall_time
        pred.check_conservation()

    def test_replay_node_count_mismatch(self):
        events, regions, _ = record_water(n_nodes=4)
        m = make_machine(MachineConfig(n_nodes=8, page_size=512), "stache")
        with pytest.raises(SimulationError):
            replay_session((events, regions), m)

    def test_restore_regions_sets_home_tags(self):
        cfg = MachineConfig(n_nodes=2, page_size=512)
        m = make_machine(cfg, "stache")
        restore_regions(m, [{"name": "x", "size": 1024, "homes": [0, 1]}])
        region = m.addr_space.region("x")
        first = m.addr_space.block_of(region.base)
        assert m.nodes[0].tags.permits(first, "w")
        blocks_per_page = 512 // 32
        assert m.nodes[1].tags.permits(first + blocks_per_page, "w")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=3000),
                              st.lists(st.integers(min_value=0, max_value=3),
                                       min_size=1, max_size=8)),
                    min_size=1, max_size=4),
           st.sampled_from([32, 64, 256]))
    def test_restore_regions_matches_per_block_tags(self, specs, block_size):
        """Page-run tag writes leave every node's table as one write per
        block at that block's home would."""
        cfg = MachineConfig(n_nodes=4, block_size=block_size, page_size=256)
        regions = [{"name": f"r{i}", "size": size, "homes": homes}
                   for i, (size, homes) in enumerate(specs)]
        m = make_machine(cfg, "stache")
        restore_regions(m, regions)
        ref = make_machine(cfg, "stache")
        for spec in regions:
            homes = spec["homes"]
            region = ref.addr_space.allocate(
                spec["name"], spec["size"],
                home_policy=lambda p, homes=homes: homes[min(p, len(homes) - 1)])
            first = ref.addr_space.block_of(region.base)
            for b in range(first, first + region.size // block_size):
                ref.nodes[ref.home(b)].tags.set(b, AccessTag.READ_WRITE)
        for node, want in zip(m.nodes, ref.nodes):
            assert list(node.tags.items()) == list(want.tags.items())
            assert len(node.tags) == len(want.tags)

    def test_restore_regions_rejects_out_of_range_home_on_any_page(self):
        m = make_machine(MachineConfig(n_nodes=2, page_size=512), "stache")
        with pytest.raises(ConfigError,
                           match=r"home policy returned node 2 \(n_nodes=2\)"):
            restore_regions(m, [{"name": "x", "size": 3 * 512,
                                 "homes": [0, 1, 2]}])


class TestMalformedFiles:
    """A malformed session file is a SimulationError naming the file or the
    region, never a bare Python exception from deep inside a replay."""

    def write(self, tmp_path, regions, events=GOLDEN_EVENTS):
        path = tmp_path / "bad.trace"
        save_session(events, path, regions=regions)
        return path

    def test_session_without_phase_event(self, tmp_path):
        from repro.verify import verify_trace_file

        path = self.write(tmp_path, GOLDEN_REGIONS,
                          events=[("begin_group", 1), ("end_group",)])
        with pytest.raises(SimulationError, match="no phase event") as err:
            verify_trace_file(path)
        assert str(path) in str(err.value)

    def test_region_with_empty_homes(self, tmp_path):
        path = self.write(tmp_path, [{"name": "data", "size": 256, "homes": []}])
        with pytest.raises(SimulationError, match="region 'data'") as err:
            replay_session(load_session(path), make_machine(
                MachineConfig(n_nodes=2, block_size=32, page_size=128)))
        assert str(path) in str(err.value)

    def test_region_with_non_int_home(self, tmp_path):
        path = self.write(tmp_path,
                          [{"name": "data", "size": 256, "homes": [0, "1"]}])
        with pytest.raises(SimulationError, match="region 'data'") as err:
            replay_session(load_session(path), make_machine(
                MachineConfig(n_nodes=2, block_size=32, page_size=128)))
        assert str(path) in str(err.value)
