"""Tests for the simulated PMU: sampling mechanics, jitter, costs."""

import pytest

from repro.errors import ConfigError
from repro.pmu.sampler import PMU, PMUConfig


def make(period=100, jitter=0.0, handler_cost=50, trap_cost=10,
         thread_setup_cost=1000, seed=1):
    return PMU(PMUConfig(period=period, jitter=jitter,
                         handler_cost=handler_cost, trap_cost=trap_cost,
                         thread_setup_cost=thread_setup_cost, seed=seed))


class TestConfig:
    def test_defaults_valid(self):
        PMUConfig()

    def test_period_must_be_positive(self):
        with pytest.raises(ConfigError):
            PMUConfig(period=0)

    def test_jitter_bounds(self):
        with pytest.raises(ConfigError):
            PMUConfig(jitter=1.0)
        with pytest.raises(ConfigError):
            PMUConfig(jitter=-0.1)

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigError):
            PMUConfig(handler_cost=-1)

    @pytest.mark.parametrize("name", ["handler_cost", "trap_cost",
                                      "thread_setup_cost"])
    def test_fractional_costs_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            PMUConfig(**{name: 2.5})


class TestSampling:
    def test_setup_cost_returned(self):
        pmu = make()
        assert pmu.on_thread_start(1) == 1000
        assert pmu.threads_set_up == 1

    def test_fires_every_period_accesses(self):
        pmu = make(period=10)
        samples = []
        pmu.install_handler(samples.append)
        pmu.on_thread_start(1)
        for i in range(100):
            pmu.on_access(1, 0, 0x100 + i, False, 3, 4, i)
        assert len(samples) == 10

    def test_sample_carries_access_details(self):
        pmu = make(period=1)
        samples = []
        pmu.install_handler(samples.append)
        pmu.on_thread_start(7)
        pmu.on_access(7, 3, 0xABC, True, 55, 8, 999)
        s = samples[0]
        assert (s.tid, s.core, s.addr, s.is_write, s.latency, s.size,
                s.timestamp) == (7, 3, 0xABC, True, 55, 8, 999)

    def test_handler_cost_charged_on_fire_only(self):
        pmu = make(period=10, handler_cost=77)
        pmu.install_handler(lambda s: None)
        pmu.on_thread_start(1)
        costs = [pmu.on_access(1, 0, 0, False, 3, 4, 0) for _ in range(10)]
        assert costs.count(0) == 9
        assert costs.count(77) == 1

    def test_work_batch_fires_traps(self):
        pmu = make(period=100, trap_cost=5)
        pmu.on_thread_start(1)
        # 250 instructions at once crosses the threshold twice.
        assert pmu.on_work(1, 250) == 10
        assert pmu.samples_fired == 2
        assert pmu.memory_samples == 0

    def test_work_without_crossing_costs_nothing(self):
        pmu = make(period=100)
        pmu.on_thread_start(1)
        assert pmu.on_work(1, 50) == 0

    def test_threads_sampled_independently(self):
        pmu = make(period=10)
        pmu.on_thread_start(1)
        pmu.on_thread_start(2)
        fired = 0
        for _ in range(9):
            fired += bool(pmu.on_access(1, 0, 0, False, 3, 4, 0))
        # Thread 2's counter is untouched by thread 1's accesses.
        for _ in range(9):
            fired += bool(pmu.on_access(2, 0, 0, False, 3, 4, 0))
        assert fired == 0

    def test_no_handler_fire_is_a_trap(self):
        # A fire with no handler installed takes the interrupt but
        # discards the sample: trap cost, no memory sample, no
        # handler_cost charged (this used to count memory_samples and
        # charge handler_cost for a sample nobody received).
        pmu = make(period=2, handler_cost=77, trap_cost=9)
        pmu.on_thread_start(1)
        assert pmu.on_access(1, 0, 0, False, 3, 4, 0) == 0
        assert pmu.on_access(1, 0, 0, False, 3, 4, 0) == 9
        assert pmu.samples_fired == 1
        assert pmu.memory_samples == 0
        assert pmu.overhead_by_tid[1] == 1000 + 9


class TestJitter:
    def test_jittered_period_within_bounds(self):
        pmu = make(period=100, jitter=0.25)
        pmu.on_thread_start(1)
        fires = []
        count = 0
        for i in range(5000):
            count += 1
            if pmu.on_access(1, 0, 0, False, 3, 4, i):
                fires.append(count)
                count = 0
        assert fires
        assert all(75 <= gap <= 125 for gap in fires)

    def test_deterministic_per_seed(self):
        def gaps(seed):
            pmu = make(period=64, jitter=0.25, seed=seed)
            pmu.on_thread_start(1)
            out = []
            count = 0
            for i in range(2000):
                count += 1
                if pmu.on_access(1, 0, 0, False, 3, 4, i):
                    out.append(count)
                    count = 0
            return out
        assert gaps(5) == gaps(5)
        assert gaps(5) != gaps(6)

    def test_mean_rate_preserved(self):
        pmu = make(period=50, jitter=0.25)
        pmu.on_thread_start(1)
        fires = 0
        n = 50_000
        for i in range(n):
            if pmu.on_access(1, 0, 0, False, 3, 4, i):
                fires += 1
        assert abs(fires - n / 50) / (n / 50) < 0.1


class TestUnarmedThread:
    """on_access/on_work for a never-armed tid must raise a diagnosable
    SimulationError, not a bare KeyError from the countdown table."""

    def test_on_access_unarmed_raises_simulation_error(self):
        from repro.errors import SimulationError
        pmu = PMU(PMUConfig(period=32))
        with pytest.raises(SimulationError, match="not armed for thread 7"):
            pmu.on_access(7, 0, 0x1000, False, 10, 4, 0)

    def test_on_work_unarmed_raises_simulation_error(self):
        from repro.errors import SimulationError
        pmu = PMU(PMUConfig(period=32))
        with pytest.raises(SimulationError, match="not armed for thread 7"):
            pmu.on_work(7, 100)

    def test_message_names_the_missing_setup_call(self):
        from repro.errors import SimulationError
        pmu = PMU(PMUConfig(period=32))
        with pytest.raises(SimulationError, match="on_thread_start"):
            pmu.on_work(3, 1)

    def test_armed_thread_unaffected(self):
        pmu = PMU(PMUConfig(period=32))
        pmu.on_thread_start(7)
        assert pmu.on_access(7, 0, 0x1000, False, 10, 4, 0) == 0
        assert pmu.on_work(7, 5) == 0
