"""Tests for MachineConfig and LatencyModel validation and helpers."""

import pytest

from repro.errors import ConfigError
from repro.sim.params import LatencyModel, MachineConfig


class TestLatencyModel:
    def test_defaults_validate(self):
        LatencyModel().validate()

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(l1_hit=0).validate()

    def test_negative_cold_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(cold=-5).validate()

    def test_hit_must_be_cheaper_than_shared(self):
        with pytest.raises(ConfigError):
            LatencyModel(l1_hit=50, shared_clean=40).validate()

    def test_shared_must_be_cheaper_than_coherence_write(self):
        with pytest.raises(ConfigError):
            LatencyModel(shared_clean=100, coherence_write=65).validate()

    def test_ordering_of_defaults(self):
        lat = LatencyModel()
        assert lat.l1_hit < lat.shared_clean < lat.coherence_write
        assert lat.l1_hit < lat.coherence_read
        assert lat.prefetched < lat.shared_clean


class TestMachineConfig:
    def test_defaults(self):
        cfg = MachineConfig()
        assert cfg.num_cores == 48  # the paper's AMD Opteron
        assert cfg.cache_line_size == 64
        assert cfg.word_size == 4

    def test_line_shift(self):
        assert MachineConfig(cache_line_size=64).line_shift == 6
        assert MachineConfig(cache_line_size=32).line_shift == 5
        assert MachineConfig(cache_line_size=128).line_shift == 7

    def test_line_of(self):
        cfg = MachineConfig(cache_line_size=64)
        assert cfg.line_of(0) == 0
        assert cfg.line_of(63) == 0
        assert cfg.line_of(64) == 1
        assert cfg.line_of(0x40000000) == 0x40000000 >> 6

    def test_word_of(self):
        cfg = MachineConfig()
        assert cfg.word_of(0) == 0
        assert cfg.word_of(3) == 0
        assert cfg.word_of(4) == 1

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(cache_line_size=48)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(num_cores=0)

    def test_line_smaller_than_word_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(cache_line_size=2, word_size=4)

    def test_invalid_word_size_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(word_size=3)

    def test_invalid_latency_rejected_via_config(self):
        with pytest.raises(ConfigError):
            MachineConfig(latency=LatencyModel(l1_hit=-1))


class TestCycleInputs:
    """Time-valued inputs are added to simulated clocks, which must stay
    non-negative ints (the engine packs them into its heap keys)."""

    @pytest.mark.parametrize("name", [
        "spawn_cost", "join_cost", "alloc_cost",
        "remote_fetch_penalty", "remote_transfer_penalty"])
    @pytest.mark.parametrize("value", [2.5, 1.0, -300, True, "5", None])
    def test_machine_costs_must_be_non_negative_ints(self, name, value):
        with pytest.raises(ConfigError, match=name):
            MachineConfig(**{name: value})

    @pytest.mark.parametrize("name", ["spawn_cost", "join_cost",
                                      "alloc_cost"])
    def test_zero_machine_cost_accepted(self, name):
        assert getattr(MachineConfig(**{name: 0}), name) == 0

    @pytest.mark.parametrize("value", [2.5, 3.0, False])
    def test_latency_costs_must_be_ints(self, value):
        with pytest.raises(ConfigError, match="l1_hit"):
            LatencyModel(l1_hit=value)

    def test_machine_dict_with_fractional_cost_rejected(self):
        with pytest.raises(ConfigError, match="alloc_cost"):
            MachineConfig.from_dict({"alloc_cost": 0.5})
