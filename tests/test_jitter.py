"""The bulk jitter stream (repro.sim.jitter) against the serial xorshift.

Every draw is part of the simulated machine, so the chunks must equal
the serial stream's draws exactly, across chunk boundaries, for every
supported ``timing_jitter``; the machine's inputs outside that range
are refused.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.request import RunRequest
from repro.service.spec import RunSpec
from repro.sim.engine import Engine
from repro.sim.jitter import CHUNK, MAX_JITTER, JitterStream
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Four chunks: three boundaries.
_CHUNKS = 4


def serial_states(seed, count):
    """The reference: ``count`` serial xorshift64 (13/7/17) states."""
    states = []
    s = seed
    for _ in range(count):
        s ^= (s << 13) & _MASK64
        s ^= s >> 7
        s ^= (s << 17) & _MASK64
        states.append(s)
    return states


def bulk(jitter, seed, chunks=_CHUNKS):
    stream = JitterStream(jitter, seed)
    draws = b"".join(stream.next_chunk() for _ in range(chunks))
    assert len(draws) == chunks * CHUNK
    return draws, stream.state


class TestStreamMatchesSerial:
    @given(st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=12, deadline=None)
    def test_every_jitter_across_chunk_boundaries(self, seed):
        states = serial_states(seed, _CHUNKS * CHUNK)
        for jitter in range(MAX_JITTER + 1):
            draws, state = bulk(jitter, seed)
            assert draws == bytes(s % (jitter + 1) for s in states), jitter
            assert state == states[-1]

    @pytest.mark.parametrize("seed", [1, 0xC0FFEE, 2 ** 64 - 1])
    def test_fixed_seeds(self, seed):
        draws, state = bulk(2, seed, chunks=3)
        states = serial_states(seed, len(draws))
        assert draws == bytes(s % 3 for s in states)
        assert state == states[-1]


def hit_draws(machine, count):
    """Jitter of ``count`` private hits (latency above the hit cost)."""
    machine.access_tuple(0, 0x100, True)  # cold write: core 0 owns it
    hit = machine.config.latency.l1_hit
    return [machine.access_tuple(0, 0x100, True)[0] - hit
            for _ in range(count)]


class TestMachineDraws:
    def test_machine_reads_the_serial_stream(self):
        m = Machine(MachineConfig(), timing_jitter=5, jitter_seed=77)
        count = 2 * CHUNK + 100  # crosses two chunk boundaries
        drawn = hit_draws(m, count)
        states = serial_states(77, count + 1)
        assert drawn == [s % 6 for s in states[1:]]
        assert m.jitter_draws == count + 1

    def test_zero_seed_means_one(self):
        zero = Machine(MachineConfig(), timing_jitter=2, jitter_seed=0)
        one = Machine(MachineConfig(), timing_jitter=2, jitter_seed=1)
        assert hit_draws(zero, 50) == hit_draws(one, 50)

    def test_no_jitter_draws_nothing(self):
        m = Machine(MachineConfig(), timing_jitter=0)
        assert set(hit_draws(m, 20)) == {0}
        assert m.jitter_draws == 0


def _false_sharing(api):
    """One thread sweeps 8 lines, another hammers a word of the last:
    private hits between coherence misses, long enough to cross three
    chunk boundaries (two in the fused loop, one in the slow path)."""

    def worker(api, addr, count, repeat):
        yield from api.loop(addr, 4, count, read=True, write=True,
                            repeat=repeat)

    buf = yield from api.malloc(512, callsite="jitter.c:1")
    first = yield from api.spawn(worker, buf, 128, 64)
    second = yield from api.spawn(worker, buf + 508, 1, 8000)
    yield from api.join(first)
    yield from api.join(second)


class TestFusedLoopAcrossRefills:
    def test_fused_loop_matches_sanitized_serial_mirror(self):
        # The fused loop reads draws in place and refills its local
        # chunk; the sanitized run takes the per-access path, checked
        # draw by draw against the serial mirror.
        results = []
        for check in (False, True):
            machine = Machine(MachineConfig(num_cores=4), jitter_seed=5,
                              check=check)
            result = Engine(machine=machine).run(_false_sharing)
            results.append((result.runtime, machine.jitter_draws,
                            machine.total_cycles))
        assert results[0] == results[1]
        assert results[0][1] == 32384  # three chunk boundaries


class TestInputValidation:
    @pytest.mark.parametrize("jitter", [-1, -3, 2.5, 32, True, "2"])
    def test_timing_jitter_out_of_range(self, jitter):
        with pytest.raises(ConfigError, match="timing_jitter"):
            Machine(MachineConfig(), timing_jitter=jitter)

    @pytest.mark.parametrize("seed", [1.5, "7", -1, 2 ** 64, 2 ** 70, True])
    def test_jitter_seed_out_of_range(self, seed):
        with pytest.raises(ConfigError, match="jitter_seed"):
            Machine(MachineConfig(), jitter_seed=seed)
        with pytest.raises(ConfigError, match="jitter_seed"):
            RunRequest(workload="histogram", jitter_seed=seed)
        with pytest.raises(ConfigError, match="jitter_seed"):
            RunSpec(workload="histogram", jitter_seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_jitter_seed_bounds_accepted(self, seed):
        Machine(MachineConfig(), jitter_seed=seed)
        RunRequest(workload="histogram", jitter_seed=seed)
        RunSpec(workload="histogram", jitter_seed=seed)

    def test_largest_jitter_accepted(self):
        m = Machine(MachineConfig(), timing_jitter=MAX_JITTER)
        assert max(hit_draws(m, 2000)) == MAX_JITTER
