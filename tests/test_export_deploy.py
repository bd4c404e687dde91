"""Tests for JSON export and the two-API deployment interface."""

import json

import pytest

from repro.pmu.sampler import PMU, PMUConfig
from repro.sim.engine import Engine
from repro.sim.params import MachineConfig
from repro.core.deploy import handle_sample, setup_sampling
from repro.core.export import instance_to_dict, report_to_dict, report_to_json
from repro.heap.allocator import CheetahAllocator
from repro.pmu.sample import MemorySample
from repro.symbols.table import SymbolTable
from repro.workloads.phoenix import LinearRegression


@pytest.fixture(scope="module")
def profiled():
    wl = LinearRegression(num_threads=8)
    symbols = SymbolTable()
    wl.setup(symbols)
    engine = Engine(config=MachineConfig(), symbols=symbols,
                    pmu=PMU(PMUConfig(period=64)),
                    allocator=CheetahAllocator(line_size=64))
    profiler = setup_sampling(engine)  # API 1
    result = engine.run(wl.main)
    return profiler.finalize(result)


class TestJsonExport:
    def test_roundtrips_through_json(self, profiled):
        text = report_to_json(profiled)
        data = json.loads(text)
        assert data["tool"] == "cheetah-repro"
        assert data["runtime_cycles"] > 0

    def test_significant_instances_present(self, profiled):
        data = report_to_dict(profiled)
        assert data["significant"]
        instance = data["significant"][0]
        assert instance["kind"] == "false sharing"
        assert instance["object"]["label"] == \
            "linear_regression-pthread.c:139"

    def test_instance_fields_complete(self, profiled):
        instance = instance_to_dict(profiled.best())
        assert instance["sampled"]["accesses"] > 0
        assert instance["sampled"]["invalidations"] > 0
        assert instance["assessment"]["improvement"] > 1.0
        assert instance["assessment"]["fork_join_ok"] is True
        assert instance["words"]

    def test_word_keys_are_byte_offsets(self, profiled):
        instance = instance_to_dict(profiled.best())
        offsets = [int(k) for k in instance["words"]]
        assert all(off % 4 == 0 for off in offsets)

    def test_per_thread_breakdown_consistent(self, profiled):
        instance = instance_to_dict(profiled.best())
        sampled = instance["sampled"]
        assert (sum(sampled["per_thread_accesses"].values())
                == sampled["accesses"])


class TestDeployApi:
    def test_setup_requires_pmu(self):
        from repro.errors import ProfilerError
        with pytest.raises(ProfilerError):
            setup_sampling(Engine())

    def test_five_line_integration(self):
        # The paper's "less than 5 lines of code change" story.
        def program(api):
            buf = yield from api.malloc(64, callsite="app.c:1")
            def worker(api, addr):
                yield from api.loop(addr, 0, 1, read=True, write=True,
                                    work=2, repeat=500)
            t1 = yield from api.spawn(worker, buf)
            t2 = yield from api.spawn(worker, buf + 4)
            yield from api.join(t1)
            yield from api.join(t2)

        pmu = PMU(PMUConfig(period=16))
        engine = Engine(pmu=pmu)                        # line 1-2
        profiler = setup_sampling(engine)               # line 3
        result = engine.run(program)                    # line 4
        report = profiler.finalize(result)              # line 5
        assert report.significant

    def test_manual_sample_delivery(self):
        engine = Engine(pmu=PMU(PMUConfig()))
        profiler = setup_sampling(engine)
        heap_addr = engine.allocator.arena.base
        for i in range(50):
            tid = 1 + i % 2
            handle_sample(profiler, MemorySample(
                tid=tid, core=tid, addr=heap_addr + (tid - 1) * 4,
                is_write=True, latency=60, size=4, timestamp=i))
        assert profiler.total_samples == 50
        assert profiler.detector.samples_seen == 50
