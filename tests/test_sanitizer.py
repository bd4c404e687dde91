"""Tests for the coherence sanitizer (repro.sim.check.sanitizer).

Three properties: a clean machine passes unperturbed (identical outputs,
every access shadowed); a corrupted machine is caught with a structured
ValidationError; the planted-mutation self-test proves the net can catch
a realistic fast-path bug, not just gross corruption.
"""

from types import SimpleNamespace

import pytest

from repro.errors import SimulationError, ValidationError
from repro.pmu.sampler import PMU, PMUConfig
from repro.sim.check.mutation import BrokenFastPathMachine, run_mutation_selftest
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig


def machine(check=False, **kwargs):
    kwargs.setdefault("timing_jitter", 2)
    kwargs.setdefault("jitter_seed", 99)
    return Machine(MachineConfig(num_cores=4), check=check, **kwargs)


def contended_trace(m, rounds=50):
    """Two cores ping-ponging writes on one line, plus a disjoint reader."""
    out = []
    for i in range(rounds):
        out.append(m.access_tuple(0, 0x1000, True, now=i * 10))
        out.append(m.access_tuple(1, 0x1004, True, now=i * 10 + 3))
        out.append(m.access_tuple(2, 0x8000 + 64 * i, False, now=i * 10 + 5))
    return out


class TestCleanMachinePasses:
    def test_sanitized_outputs_identical_to_plain(self):
        plain = contended_trace(machine(check=False))
        checked = contended_trace(machine(check=True))
        assert plain == checked

    def test_every_access_is_shadowed(self):
        m = machine(check=True)
        contended_trace(m, rounds=20)
        assert m.sanitizer.accesses_checked == 60

    def test_check_off_installs_no_sanitizer(self):
        assert machine(check=False).sanitizer is None

    def test_prefetched_accepted_as_latency_remap(self):
        m = machine(check=True)
        # A forward streaming sweep trains the prefetcher; the machine
        # remaps predicted COLD fetches to PREFETCHED, which the
        # sanitizer must accept (it is not a coherence transition).
        for i in range(32):
            m.access_tuple(0, 0x4000 + 64 * i, False, now=i * 5)
        assert m.prefetch_hits > 0
        assert m.sanitizer.accesses_checked == 32


class TestCorruptionCaught:
    def test_foreign_holder_injected_into_directory(self):
        m = machine(check=True)
        m.access_tuple(0, 0x1000, True, now=0)
        state = m.directory.state_of(0x1000 >> m._line_shift)
        state.holders.add(3)  # core 3 never touched the line
        with pytest.raises(ValidationError) as exc:
            m.access_tuple(0, 0x1000, False, now=10)
        assert exc.value.invariant in ("holders-mismatch", "single-writer")

    def test_invalidation_counter_tampering(self):
        m = machine(check=True)
        m.access_tuple(0, 0x1000, True, now=0)
        m.access_tuple(1, 0x1000, True, now=5)
        line = 0x1000 >> m._line_shift
        m.directory.state_of(line).invalidations += 7
        with pytest.raises(ValidationError) as exc:
            m.access_tuple(0, 0x1000, True, now=10)
        assert exc.value.invariant == "invalidation-count"

    def test_jitter_stream_divergence(self):
        m = machine(check=True)
        m.access_tuple(0, 0x1000, True, now=0)
        m._jit_pos += 1  # one out-of-band draw at the stream position
        with pytest.raises(ValidationError) as exc:
            m.access_tuple(0, 0x1000, True, now=5)
        assert exc.value.invariant == "jitter-stream"

    def test_validation_error_is_structured(self):
        m = machine(check=True)
        contended_trace(m, rounds=5)
        line = 0x1000 >> m._line_shift
        m.directory.state_of(line).invalidations += 1
        with pytest.raises(ValidationError) as exc:
            m.access_tuple(0, 0x1000, True, now=10**6)
        error = exc.value
        assert error.invariant == "invalidation-count"
        assert isinstance(error, SimulationError)
        assert error.access["addr"] == 0x1000
        assert error.expected != error.actual
        assert error.trace, "trace of preceding accesses must be attached"
        assert "[invalidation-count]" in str(error)


class TestEngineLevelChecks:
    def test_clock_monotonicity(self):
        m = machine(check=True)
        thread = SimpleNamespace(tid=1, clock=100)
        m.sanitizer.note_quantum(thread)
        thread.clock = 250
        m.sanitizer.note_quantum(thread)
        thread.clock = 200
        with pytest.raises(ValidationError) as exc:
            m.sanitizer.note_quantum(thread)
        assert exc.value.invariant == "clock-monotonicity"

    def test_pmu_countdown_must_stay_positive(self):
        m = machine(check=True)
        pmu = PMU(PMUConfig(period=32))
        pmu.on_thread_start(0)
        m.sanitizer.check_pmu(pmu)  # freshly armed: fine
        pmu._countdown[0] = 0
        with pytest.raises(ValidationError) as exc:
            m.sanitizer.check_pmu(pmu)
        assert exc.value.invariant == "pmu-countdown"

    def test_pmu_overhead_conservation(self):
        m = machine(check=True)
        pmu = PMU(PMUConfig(period=4))
        pmu.on_thread_start(0)
        for i in range(40):
            pmu.on_access(0, 0, 0x2000 + 4 * i, False, 10, 4, i * 10)
        pmu.on_work(0, 100)
        m.sanitizer.check_pmu(pmu)
        pmu.overhead_by_tid[0] += 1  # one cycle leaks
        with pytest.raises(ValidationError) as exc:
            m.sanitizer.check_pmu(pmu)
        assert exc.value.invariant == "pmu-overhead-conservation"


class TestMutationSelfTest:
    def test_planted_fast_path_bug_is_caught(self):
        caught = run_mutation_selftest()
        assert isinstance(caught, ValidationError)
        # The broken predicate claims HIT for a non-owner holder, which
        # skips the silent-upgrade transition.
        assert caught.invariant in ("outcome-mismatch", "dirty-owner-mismatch",
                                    "holders-mismatch", "invalidation-count")

    def test_broken_machine_runs_silently_without_sanitizer(self):
        # The point of the self-test: the same bug produces a plausible,
        # wrong simulation when nothing shadows it.
        from repro.heap.allocator import CheetahAllocator
        from repro.sim.check.mutation import _false_sharing_program
        from repro.sim.engine import Engine

        config = MachineConfig(num_cores=4)
        broken = BrokenFastPathMachine(config, timing_jitter=0)
        honest = Machine(config, timing_jitter=0)
        results = []
        for m in (broken, honest):
            engine = Engine(config=config, machine=m,
                            allocator=CheetahAllocator(
                                line_size=config.cache_line_size))
            results.append(engine.run(_false_sharing_program).runtime)
        assert results[0] != results[1]
