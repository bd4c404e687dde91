"""Tests for the top-level package facade: ``repro.Session`` over bare
generator functions, workload objects and custom configs."""

import repro
from repro import CheetahConfig, MachineConfig, PMUConfig, Session
from repro.workloads.micro import ArrayIncrement


def tiny_fs_program(api):
    buf = yield from api.malloc(64, callsite="facade.c:1")
    def worker(api, addr):
        yield from api.loop(addr, 0, 1, read=True, write=True, work=2,
                            repeat=400)
    t1 = yield from api.spawn(worker, buf)
    t2 = yield from api.spawn(worker, buf + 4)
    yield from api.join(t1)
    yield from api.join(t2)


class TestRunPlain:
    """Native runs (``Session.run``)."""

    def test_accepts_bare_generator_function(self):
        result = Session(tiny_fs_program).run().result
        assert result.runtime > 0

    def test_accepts_workload_object(self):
        result = Session(ArrayIncrement(num_threads=2, scale=0.1)).run().result
        assert result.runtime > 0

    def test_custom_machine_config(self):
        cfg = MachineConfig(cache_line_size=32)
        result = Session(tiny_fs_program, machine=cfg).run().result
        assert result.machine.config.cache_line_size == 32

    def test_workload_globals_are_defined(self):
        from repro.workloads.phoenix import Histogram
        result = Session(Histogram(num_threads=4, scale=0.05)).run().result
        assert result.symbols.lookup("thread_stats") is not None


class TestProfileFacade:
    """Profiled runs (``Session.profile``)."""

    def test_returns_result_and_report(self):
        outcome = Session(tiny_fs_program, pmu=PMUConfig(period=16)).profile()
        assert outcome.result.runtime > 0
        assert outcome.report.significant

    def test_custom_cheetah_config_respected(self):
        cfg = CheetahConfig(min_improvement=1e9)
        report = Session(tiny_fs_program, pmu=PMUConfig(period=16),
                         cheetah=cfg).report()
        assert report.significant == []

    def test_version_exposed(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestLineSizeThroughFacade:
    def test_32_byte_machine_separates_the_words(self):
        # On 32-byte lines, words at offsets 0 and 4 still share; but at
        # offset 32 they do not.
        def spaced(api):
            buf = yield from api.malloc(64, callsite="sp.c:1")
            def worker(api, addr):
                yield from api.loop(addr, 0, 1, read=True, write=True,
                                    work=2, repeat=300)
            t1 = yield from api.spawn(worker, buf)
            t2 = yield from api.spawn(worker, buf + 32)
            yield from api.join(t1)
            yield from api.join(t2)
        cfg64 = MachineConfig(cache_line_size=64)
        cfg32 = MachineConfig(cache_line_size=32)
        r64 = Session(spaced, machine=cfg64).run().result
        r32 = Session(spaced, machine=cfg32).run().result
        assert r64.machine.directory.total_invalidations() > 100
        assert r32.machine.directory.total_invalidations() == 0
        assert r32.runtime < r64.runtime
