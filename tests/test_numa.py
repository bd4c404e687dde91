"""Tests for the NUMA remote-latency model (MachineConfig knobs,
machine penalty path, sanitizer mirroring, request plumbing)."""

import pytest

from repro.errors import ConfigError
from repro.request import RunRequest
from repro.run import run_workload
from repro.sim.params import MachineConfig
from repro.workloads import get_workload

NUMA = dict(numa_nodes=2, remote_fetch_penalty=60,
            remote_transfer_penalty=40)


class TestConfig:
    def test_defaults_are_single_node(self):
        config = MachineConfig()
        assert config.numa_nodes == 1
        assert config.remote_fetch_penalty == 0
        assert config.remote_transfer_penalty == 0

    def test_node_and_home_striping(self):
        config = MachineConfig(numa_nodes=4)
        assert [config.node_of(c) for c in range(5)] == [0, 1, 2, 3, 0]
        assert config.home_node(7) == 3

    def test_nodes_must_be_positive(self):
        with pytest.raises(ConfigError):
            MachineConfig(numa_nodes=0)

    def test_nodes_capped_by_cores(self):
        with pytest.raises(ConfigError):
            MachineConfig(num_cores=4, numa_nodes=8)

    def test_penalties_non_negative(self):
        with pytest.raises(ConfigError):
            MachineConfig(numa_nodes=2, remote_fetch_penalty=-1)
        with pytest.raises(ConfigError):
            MachineConfig(numa_nodes=2, remote_transfer_penalty=-1)


class TestMachineBehaviour:
    def test_zero_penalties_bit_identical_to_single_node(self):
        cls = get_workload("producer_consumer_ring")
        base = run_workload(cls(scale=0.3), jitter_seed=1)
        striped = run_workload(
            cls(scale=0.3), jitter_seed=1,
            machine_config=MachineConfig(numa_nodes=2))
        assert striped.runtime == base.runtime
        assert (striped.result.machine.directory.total_invalidations()
                == base.result.machine.directory.total_invalidations())

    def test_penalties_slow_cross_node_sharing(self):
        cls = get_workload("numa_ping_pong")
        local = run_workload(cls(scale=0.3), jitter_seed=1)
        remote = run_workload(cls(scale=0.3), jitter_seed=1,
                              machine_config=MachineConfig(**NUMA))
        assert remote.runtime > local.runtime
        assert remote.result.machine.numa_penalty_cycles > 0

    def test_penalty_counter_zero_when_off(self):
        cls = get_workload("numa_ping_pong")
        out = run_workload(cls(scale=0.3), jitter_seed=1)
        assert out.result.machine.numa_penalty_cycles == 0

    def test_sanitized_numa_run_passes(self):
        # The sanitizer reconstructs latency independently (oracle-sourced
        # previous owner), so a penalty mismatch would raise.
        cls = get_workload("numa_ping_pong")
        out = run_workload(cls(scale=0.2), jitter_seed=1,
                           machine_config=MachineConfig(**NUMA), check=True)
        assert out.runtime > 0

    def test_sanitized_numa_fork_join_passes(self):
        cls = get_workload("linear_regression")
        config = MachineConfig(numa_nodes=4, remote_fetch_penalty=50,
                               remote_transfer_penalty=30)
        out = run_workload(cls(num_threads=4, scale=0.1), jitter_seed=1,
                           machine_config=config, check=True)
        assert out.runtime > 0


class TestRequestPlumbing:
    def test_numa_knobs_reach_machine_config(self):
        request = RunRequest(workload="numa_ping_pong", **NUMA)
        machine = request.machine_config()
        assert machine.numa_nodes == 2
        assert machine.remote_fetch_penalty == 60
        assert machine.remote_transfer_penalty == 40

    def test_default_request_stays_none(self):
        assert RunRequest(workload="kmeans").machine_config() is None

    def test_invalid_knobs_rejected_at_request(self):
        with pytest.raises(ConfigError):
            RunRequest(workload="kmeans", numa_nodes=0)
        with pytest.raises(ConfigError):
            RunRequest(workload="kmeans", remote_fetch_penalty=-5)

    def test_request_round_trips_numa(self):
        request = RunRequest(workload="numa_ping_pong", **NUMA)
        assert RunRequest.from_dict(request.to_dict()) == request

    def test_workload_machine_defaults_declared(self):
        cls = get_workload("numa_ping_pong")
        machine = MachineConfig(**cls.machine_defaults)
        assert machine.numa_nodes == 2
        assert machine.remote_transfer_penalty > 0
