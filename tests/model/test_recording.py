"""The value-pass recording and its block/home layout vs. the simulator."""

import numpy as np
import pytest

from repro.apps import water
from repro.core import make_machine
from repro.model.layout import LayoutModel
from repro.cstar.recording import record_program, recording_key
from repro.util import MachineConfig
from repro.util.errors import ConfigError, SimulationError

TINY = dict(n=16, iterations=2)
CFG = MachineConfig(n_nodes=4, page_size=512)


def recording():
    return record_program(water, TINY, n_nodes=4, page_size=512)


class TestRecording:
    def test_cached_by_key(self):
        assert recording() is recording()
        assert (recording_key(water, TINY, "cstar", 4, 512)
                == recording_key(water, dict(TINY), "cstar", 4, 512))

    def test_phase_names_match_sim(self):
        cfg = CFG.with_(block_size=32)
        m = make_machine(cfg, "stache")
        stats = water.build(**TINY).run(m, optimized=False).finish()
        rec_names = [ph.name for ph in recording().phases()]
        assert rec_names == [p.phase_name for p in stats.phases]

    def test_block_size_free(self):
        # one recording serves every block size: accesses are stored as
        # (aggregate, element), not as blocks
        rec = recording()
        for bs in (32, 64, 256):
            layout = LayoutModel(rec, CFG.with_(block_size=bs))
            assert layout.block_size == bs


class TestLayoutModel:
    def test_home_matches_address_space(self):
        rec = recording()
        cfg = CFG.with_(block_size=32)
        layout = LayoutModel(rec, cfg)
        m = make_machine(cfg, "stache")
        # rebuild the same program on a real machine: region bases are
        # page-aligned and declaration-ordered, so homes must agree
        water.build(**TINY).run(m, optimized=False).finish()
        checked = 0
        for ph in rec.phases():
            for node in range(rec.n_nodes):
                agg, flat, _ = ph.accesses(node)
                if not len(flat):
                    continue
                blocks = layout.blocks(agg, flat)
                for b in np.unique(blocks)[:8]:
                    assert layout.home(int(b)) == m.home(int(b))
                    checked += 1
            if checked:
                break  # one phase of agreement is representative
        assert checked > 0

    def test_home_outside_every_region_raises(self):
        # page 0 is reserved and nothing lies past the last region: the
        # directory must never be handed a home for such a block
        layout = LayoutModel(recording(), CFG.with_(block_size=32))
        end = recording().addr_space.regions[-1].end // 32
        assert layout.home(end - 1) >= 0
        for block in (0, 512 // 32 - 1, end, -1):
            with pytest.raises(SimulationError, match="in no region"):
                layout.home(block)

    def test_node_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            LayoutModel(recording(), MachineConfig(n_nodes=8, page_size=512))

    def test_page_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            LayoutModel(recording(),
                        MachineConfig(n_nodes=4, page_size=4096))
