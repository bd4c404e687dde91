"""Tests for the end-to-end Cheetah profiler wiring."""

import pytest

from repro.core.profiler import CheetahConfig, CheetahProfiler
from repro.errors import ProfilerError
from repro.heap.allocator import CheetahAllocator
from repro.pmu.sampler import PMU, PMUConfig
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig
from repro.symbols.table import SymbolTable


def build(pmu_period=16, cheetah_config=None, jitter_seed=3):
    config = MachineConfig()
    machine = Machine(config, jitter_seed=jitter_seed)
    pmu = PMU(PMUConfig(period=pmu_period, handler_cost=10, trap_cost=2,
                        thread_setup_cost=100))
    engine = Engine(config=config, machine=machine, pmu=pmu,
                    symbols=SymbolTable(),
                    allocator=CheetahAllocator(line_size=64))
    profiler = CheetahProfiler(cheetah_config)
    profiler.attach(engine)
    return engine, profiler


def fs_program(api):
    """Two threads RMW adjacent words of one heap line."""
    buf = yield from api.malloc(64, callsite="fsprog.c:10")
    def worker(api, addr):
        yield from api.loop(addr, 0, 1, read=True, write=True, work=2,
                            repeat=800)
    t1 = yield from api.spawn(worker, buf)
    t2 = yield from api.spawn(worker, buf + 4)
    yield from api.join(t1)
    yield from api.join(t2)


def private_program(api):
    """Two threads on separate lines: no sharing at all."""
    buf = yield from api.malloc(256, callsite="private.c:5")
    def worker(api, addr):
        yield from api.loop(addr, 0, 1, read=True, write=True, work=2,
                            repeat=500)
    t1 = yield from api.spawn(worker, buf)
    t2 = yield from api.spawn(worker, buf + 128)
    yield from api.join(t1)
    yield from api.join(t2)


class TestWiring:
    def test_attach_requires_pmu(self):
        engine = Engine()
        with pytest.raises(ProfilerError):
            CheetahProfiler().attach(engine)

    def test_double_attach_rejected(self):
        engine, profiler = build()
        with pytest.raises(ProfilerError):
            profiler.attach(engine)

    def test_finalize_requires_attach(self):
        with pytest.raises(ProfilerError):
            CheetahProfiler().finalize(None)

    def test_samples_flow_to_detector(self):
        engine, profiler = build()
        result = engine.run(fs_program)
        assert profiler.total_samples > 50
        assert profiler.detector.samples_seen == profiler.total_samples \
            - profiler.filtered_samples


class TestEndToEnd:
    def test_false_sharing_detected_and_reported(self):
        engine, profiler = build()
        result = engine.run(fs_program)
        report = profiler.finalize(result)
        assert report.significant, "the planted FS instance must be found"
        best = report.best()
        assert best.profile.label == "fsprog.c:10"
        assert best.is_false_sharing
        assert best.improvement > 1.5
        assert report.fork_join_ok

    def test_report_render_contains_callsite(self):
        engine, profiler = build()
        result = engine.run(fs_program)
        report = profiler.finalize(result)
        assert "fsprog.c:10" in report.render()

    def test_private_program_reports_nothing(self):
        engine, profiler = build()
        result = engine.run(private_program)
        report = profiler.finalize(result)
        assert report.significant == []
        assert "No significant false sharing" in report.render()

    def test_true_sharing_not_in_significant(self):
        def ts_program(api):
            buf = yield from api.malloc(64, callsite="ts.c:2")
            def worker(api):
                yield from api.loop(buf, 0, 1, read=True, write=True,
                                    work=2, repeat=800)
            t1 = yield from api.spawn(worker)
            t2 = yield from api.spawn(worker)
            yield from api.join(t1)
            yield from api.join(t2)
        engine, profiler = build(
            cheetah_config=CheetahConfig(report_true_sharing=True))
        result = engine.run(ts_program)
        report = profiler.finalize(result)
        assert report.significant == []
        kinds = {r.kind.value for r in report.all_instances}
        assert kinds <= {"true sharing"}

    def test_min_improvement_filters(self):
        engine, profiler = build(
            cheetah_config=CheetahConfig(min_improvement=1e9))
        result = engine.run(fs_program)
        report = profiler.finalize(result)
        assert report.significant == []
        assert report.false_sharing_instances()  # still visible

    def test_sample_filtering_outside_heap_and_globals(self):
        def stacky(api):
            # Addresses below the globals segment: filtered out.
            yield from api.loop(0x1000, 4, 64, read=True, write=True,
                                repeat=20)
        engine, profiler = build()
        result = engine.run(stacky)
        report = profiler.finalize(result)
        assert profiler.filtered_samples > 0
        assert report.all_instances == []

    def test_serial_latencies_collected(self):
        def serial_only(api):
            buf = yield from api.malloc(4096, callsite="serial.c:1")
            yield from api.loop(buf, 4, 1024, read=True, write=True,
                                repeat=2)
        engine, profiler = build()
        result = engine.run(serial_only)
        report = profiler.finalize(result)
        assert report.serial_samples > 10
        assert report.aver_nofs_cycles > 0


def predict_report(**cheetah):
    """producer_consumer_ring's predict-mode report at 8 threads."""
    from repro.run import run_workload
    from repro.workloads import get_workload
    workload = get_workload("producer_consumer_ring")(num_threads=8)
    return run_workload(workload, machine_config=MachineConfig(mode="predict"),
                        with_cheetah=True,
                        cheetah_config=CheetahConfig(**cheetah)).report


class TestOneReportBuilder:
    """The profiler and predict mode share one report policy."""

    def test_only_the_builder_assesses(self):
        import ast
        from pathlib import Path

        import repro
        root = Path(repro.__file__).parent
        callers = set()
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                func = node.func if isinstance(node, ast.Call) else None
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name == "assess_object":
                    callers.add(path.relative_to(root).as_posix())
        assert callers == {"core/profiler.py"}

    def test_predict_min_improvement_filters(self):
        report = predict_report(min_improvement=1e9)
        assert report.significant == []
        assert report.false_sharing_instances()  # still visible

    def test_predict_true_sharing_not_in_significant(self):
        shown = predict_report(report_true_sharing=True)
        hidden = predict_report()
        kinds = [r.kind.value for r in shown.all_instances]
        assert "true sharing" in kinds
        assert all(r.is_false_sharing for r in hidden.all_instances)
        assert hidden.all_instances == shown.false_sharing_instances()
        for report in (shown, hidden):
            assert report.significant
            assert all(r.is_false_sharing for r in report.significant)
