"""Seeded-mutation self-test: prove the sanitizer actually catches bugs.

A safety net that has never caught anything proves nothing. This module
deliberately plants a classic bug and asserts the validation net detects
it on a small two-thread false-sharing program:
:class:`BrokenFastPathMachine` corrupts the machine's private-HIT
*write* predicate — a write to a shared line is mispriced as a HIT and
performs no invalidation, silently erasing the coherence traffic false
sharing is made of. The sanitizer must refuse it on the first such
write.

``repro validate`` runs it every time, so a regression that weakens the
net is itself caught.
"""

from __future__ import annotations

from repro.errors import SimulationError, ValidationError
from repro.heap.allocator import CheetahAllocator
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig


class BrokenFastPathMachine(Machine):
    """Machine with one corrupted private-HIT predicate.

    The honest fast path treats a *write* as a private hit only when the
    accessing core is the dirty owner. This mutant accepts any holder —
    so a write to a line held shared by several cores is mispriced as a
    HIT and, worse, performs no invalidation. Exactly the kind of silent
    divergence a hand-replicated hot path can grow; the sanitizer must
    refuse it on the first such write.
    """

    def access_tuple(self, core: int, addr: int, is_write: bool,
                     now: int = 0):
        line = addr >> self._line_shift
        if self._fast_private:
            state = self._dirlines.get(line)
            # BUG (deliberate): ``core in state.holders`` is the *read*
            # predicate; for writes it must be ``state.dirty_owner == core``.
            if state is not None and core in state.holders:
                latency = self._hit_cost
                if self._jitter:
                    pos = self._jit_pos
                    try:
                        latency += self._jit[pos]
                    except IndexError:
                        latency += self.next_jitter_chunk()[0]
                        pos = 0
                    self._jit_pos = pos + 1
                self.total_accesses += 1
                self.total_cycles += latency
                return latency, "hit", line
        return Machine.access_tuple(self, core, addr, is_write, now)

    # The sanitizer must validate the *mutated* fast path.
    _raw_access_tuple = access_tuple


def _false_sharing_program(api):
    """Two threads read-then-write disjoint words of one shared line."""

    def worker(api, addr):
        yield from api.loop(addr, 0, 1, read=True, write=True, repeat=40)

    buf = yield from api.malloc(64, callsite="mutation.c:1")
    first = yield from api.spawn(worker, buf)
    second = yield from api.spawn(worker, buf + 4)
    yield from api.join(first)
    yield from api.join(second)


def _run(machine: Machine) -> None:
    config = machine.config
    engine = Engine(config=config, machine=machine,
                    allocator=CheetahAllocator(
                        line_size=config.cache_line_size))
    engine.run(_false_sharing_program)


def run_mutation_selftest() -> ValidationError:
    """Run the self-test; returns the ValidationError the sanitizer raised.

    Raises :class:`SimulationError` if either leg fails: the honest
    machine must pass clean, and the mutated machine must be caught.
    """
    config = MachineConfig(num_cores=4)
    _run(Machine(config, check=True))  # honest machine: must be clean
    try:
        _run(BrokenFastPathMachine(config, check=True))
    except ValidationError as caught:
        return caught
    raise SimulationError(
        "sanitizer self-test failed: the deliberately corrupted "
        "fast-path write predicate went undetected")
