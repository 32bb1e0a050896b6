"""Tests for MachineConfig validation and derived costs."""

import math

import pytest

from repro.util import ConfigError, MachineConfig
from repro.util.config import CM5_DEFAULTS


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = MachineConfig()
        assert cfg.n_nodes == 8
        assert cfg.block_size == 32

    def test_cm5_defaults_32_nodes(self):
        assert CM5_DEFAULTS.n_nodes == 32

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_nodes=0)

    def test_rejects_negative_nodes(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_nodes=-4)

    @pytest.mark.parametrize("bs", [0, 3, 33, 48, -32])
    def test_rejects_non_power_of_two_block(self, bs):
        with pytest.raises(ConfigError):
            MachineConfig(block_size=bs)

    @pytest.mark.parametrize("bs", [32, 64, 128, 256, 1024])
    def test_accepts_paper_block_sizes(self, bs):
        assert MachineConfig(block_size=bs).block_size == bs

    def test_rejects_page_smaller_than_block(self):
        with pytest.raises(ConfigError):
            MachineConfig(block_size=1024, page_size=512)

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigError):
            MachineConfig(msg_latency=-1)
        with pytest.raises(ConfigError):
            MachineConfig(per_byte_cost=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "cache_hit_cost", "fault_cost", "handler_cost", "msg_latency",
        "per_byte_cost", "bulk_msg_overhead", "presend_entry_cost",
        "barrier_latency", "directory_lookup_cost"])
    def test_rejects_non_finite_costs(self, name, value):
        # a NaN or infinite cost would reach the engine's calendar and the
        # model's walls as nan
        with pytest.raises(ConfigError,
                           match=f"{name} must be finite and non-negative"):
            MachineConfig(**{name: value})
        with pytest.raises(ConfigError):
            MachineConfig().with_(**{name: value})


class TestDerived:
    def test_message_cost_includes_payload(self):
        cfg = MachineConfig(msg_latency=100, per_byte_cost=0.5)
        assert cfg.message_cost(0) == 100
        assert cfg.message_cost(32) == 116

    def test_bulk_cost_adds_startup_once(self):
        cfg = MachineConfig(msg_latency=100, per_byte_cost=1.0, bulk_msg_overhead=50)
        assert cfg.bulk_message_cost(10) == 160

    def test_blocks_per_page(self):
        cfg = MachineConfig(block_size=32, page_size=4096)
        assert cfg.blocks_per_page() == 128

    def test_with_replaces_field(self):
        cfg = MachineConfig(n_nodes=4)
        cfg2 = cfg.with_(block_size=256)
        assert cfg2.block_size == 256
        assert cfg2.n_nodes == 4
        assert cfg.block_size == 32  # original untouched

    def test_with_still_validates(self):
        with pytest.raises(ConfigError):
            MachineConfig().with_(block_size=100)

    def test_frozen(self):
        cfg = MachineConfig()
        with pytest.raises(Exception):
            cfg.n_nodes = 16
