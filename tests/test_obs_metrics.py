"""Tests for the metrics registry and the run-level conservation laws."""

import sys
import threading

import pytest

from repro.errors import ConfigError
from repro.obs import ObsConfig
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_snapshots,
)
from repro.pmu.sampler import PMUConfig
from repro.run import run_workload
from repro.workloads.micro import ArrayIncrement


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("hits_total")
        assert c.value() == 0
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_negative_increment_rejected(self):
        c = Counter("hits_total")
        with pytest.raises(ConfigError):
            c.inc(-1)

    def test_labelled_series_and_total(self):
        c = Counter("accesses_total", label="outcome")
        c.inc(3, "hit")
        c.inc(2, "miss")
        assert c.value("hit") == 3
        assert c.total() == 5

    def test_label_mismatch_rejected(self):
        c = Counter("accesses_total", label="outcome")
        with pytest.raises(ConfigError):
            c.inc(1)
        with pytest.raises(ConfigError):
            Counter("plain_total").inc(1, "hit")


class TestGauge:
    def test_set_overwrites_add_accumulates(self):
        g = Gauge("occupancy")
        g.set(7)
        g.set(3)
        assert g.value() == 3
        g.add(2)
        assert g.value() == 5


class TestHistogram:
    def test_buckets_must_be_strictly_increasing(self):
        with pytest.raises(ConfigError):
            Histogram("h", buckets=(1, 1, 2))
        with pytest.raises(ConfigError):
            Histogram("h", buckets=(4, 2))

    def test_cumulative_buckets_and_inf(self):
        h = Histogram("cost", buckets=(1, 10))
        for value in (0, 1, 5, 100):
            h.observe(value)
        assert h.bucket_counts() == [("1", 2), ("10", 3), ("+Inf", 4)]
        assert h.count == 4
        assert h.sum == 106

    def test_render_is_prometheus_shaped(self):
        h = Histogram("cost", help="cycles", buckets=(2,))
        h.observe(1)
        lines = h.render()
        assert "# TYPE cost histogram" in lines
        assert 'cost_bucket{le="2"} 1' in lines
        assert 'cost_bucket{le="+Inf"} 1' in lines
        assert "cost_count 1" in lines


class TestThreadSafety:
    def test_concurrent_updates_are_never_lost(self):
        """4 threads x 20,000 updates of each kind, switching threads
        often: every read-modify-write must land."""
        counter = Counter("hits_total", label="outcome")
        gauge = Gauge("level")
        histogram = Histogram("sizes", buckets=(1, 2))
        per_thread = 20_000

        def hammer():
            for _ in range(per_thread):
                counter.inc(1, "hit")
                gauge.add(1)
                histogram.observe(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert counter.value("hit") == 4 * per_thread
        assert gauge.value() == 4 * per_thread
        assert histogram.count == histogram.sum == 4 * per_thread
        assert histogram.bucket_counts()[0] == ("1", 4 * per_thread)

    def test_concurrent_first_requests_share_one_metric(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                registry = MetricsRegistry()
                barrier = threading.Barrier(4)
                got = []

                def request():
                    barrier.wait()
                    got.append(registry.gauge("queue_depth"))

                threads = [threading.Thread(target=request)
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len({id(gauge) for gauge in got}) == 1
        finally:
            sys.setswitchinterval(interval)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total")
        b = reg.counter("x_total")
        assert a is b

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")
        with pytest.raises(ConfigError):
            reg.histogram("x")

    def test_label_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", label="kind")
        with pytest.raises(ConfigError):
            reg.counter("x_total", label="other")

    def test_render_families_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_total").inc()
        reg.gauge("a_value").set(1)
        text = reg.render_prometheus()
        assert text.index("a_value") < text.index("b_total")
        assert text.endswith("\n")

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c_total", label="kind").inc(2, "x")
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1,)).observe(0)
        snap = reg.snapshot()
        assert snap["counters"]["c_total"] == {"x": 2}
        assert snap["gauges"]["g"] == 7
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["buckets"][-1] == ["+Inf", 1]


class TestAggregateSnapshots:
    def test_counters_and_gauges_sum_per_series(self):
        reg = MetricsRegistry()
        reg.counter("c_total", label="kind").inc(2, "x")
        reg.gauge("g").set(5)
        snap = reg.snapshot()
        agg = aggregate_snapshots([snap, snap, snap])
        assert agg["counters"]["c_total"] == {"x": 6}
        assert agg["gauges"]["g"] == 15

    def test_histograms_sum_bucket_wise(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1, 10)).observe(5)
        snap = reg.snapshot()
        agg = aggregate_snapshots([snap, snap])
        assert agg["histograms"]["h"]["count"] == 2
        assert agg["histograms"]["h"]["buckets"] == [
            ["1", 0], ["10", 2], ["+Inf", 2]]

    def test_mismatched_bucket_bounds_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1,)).observe(0)
        b = MetricsRegistry()
        b.histogram("h", buckets=(2,)).observe(0)
        with pytest.raises(ConfigError):
            aggregate_snapshots([a.snapshot(), b.snapshot()])


class TestRunConservation:
    """Cross-check the registry against the run's own ground truth.

    The profiled run executes under the coherence sanitizer, whose
    ``check_pmu`` enforces ``sum(overhead_by_tid) == setup*threads +
    handler*memory_samples + trap*other_fires`` on the engine side; the
    assertions below verify the metrics snapshot reports exactly the
    same decomposition.
    """

    @pytest.fixture(scope="class")
    def run(self):
        workload = ArrayIncrement(num_threads=4, scale=0.2)
        return run_workload(workload, with_cheetah=True, check=True,
                            obs=ObsConfig(trace=False))

    def test_access_counters_match_ground_truth(self, run):
        counters = run.metrics["counters"]
        by_outcome = counters["machine_accesses_total"]
        assert sum(by_outcome.values()) == run.result.total_accesses
        assert counters["sim_accesses_total"] == run.result.total_accesses

    def test_invalidations_match_directory(self, run):
        counters = run.metrics["counters"]
        directory = run.result.machine.directory
        assert (counters["coherence_invalidations_total"]
                == directory.total_invalidations())
        hist = run.metrics["histograms"]["coherence_invalidations_per_line"]
        assert hist["sum"] == directory.total_invalidations()
        assert hist["count"] == len(directory.lines_with_invalidations(1))

    def test_pmu_overhead_decomposition(self, run):
        cfg = PMUConfig()
        counters = run.metrics["counters"]
        gauges = run.metrics["gauges"]
        samples = counters["pmu_samples_total"]
        overhead = counters["pmu_overhead_cycles_total"]
        assert overhead["setup"] == (gauges["pmu_threads_armed"]
                                     * cfg.thread_setup_cost)
        assert overhead["handler"] == samples["memory"] * cfg.handler_cost
        assert overhead["trap"] == samples["trap"] * cfg.trap_cost
        # The live histogram saw every delivered memory sample.
        hist = run.metrics["histograms"]["pmu_handler_cost_cycles"]
        assert hist["count"] == samples["memory"]
        assert hist["sum"] == overhead["handler"]

    def test_phase_cycles_partition_runtime(self, run):
        phase = run.metrics["counters"]["phase_cycles_total"]
        assert phase["serial"] + phase["parallel"] == run.result.runtime

    def test_detector_counters_sane(self, run):
        counters = run.metrics["counters"]
        gauges = run.metrics["gauges"]
        det = counters["detector_samples_total"]
        assert det["seen"] >= det["recorded"] > 0
        assert counters["detector_promotions_total"] > 0
        assert (gauges["detector_detailed_lines"]
                <= gauges["detector_tracked_lines"])

    def test_observed_run_is_cycle_identical(self, run):
        bare = run_workload(ArrayIncrement(num_threads=4, scale=0.2),
                            with_cheetah=True)
        assert bare.runtime == run.runtime
