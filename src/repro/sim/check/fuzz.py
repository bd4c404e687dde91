"""Differential fuzzer: random op programs, bit-identical outputs.

The fused burst loop, the observed burst loop and the sanitizer-free
fast paths must all be semantically identical. This module turns that
claim into a property test: generate a random — but fully seeded, so
exactly reproducible — multi-threaded op program, run it through every
execution path, and assert the run *fingerprints* (runtime, per-thread
clocks/counters, machine totals, per-line invalidations, PMU fire
counts) are equal bit for bit.

Programs are plain JSON-able dicts ("specs"), so a failing program can
be checked into ``tests/data/fuzz_corpus.json`` as a permanent
regression, and a divergence can be triaged by re-running a single seed:

    repro validate --seed 12345 --iterations 1

Execution paths diffed per spec:

- ``fast``      — fused burst loop (no observer, no sanitizer);
- ``observed``  — general per-access loop, via a zero-cost observer;
- ``checked``   — sanitizer mode (``Machine(check=True)``), which must be
                  behaviour-preserving, not just clean;
- ``pmu-*``     — the same set with a PMU attached, exercising the fused
                  loop's inlined sampling countdown.

Specs may carry a ``checkpoints`` list of cycle numbers. Each fire
joins the fingerprint as ``[cycle, now, threads, total_accesses,
total_cycles]``, ``threads`` holding ``[tid, clock, instructions,
mem_accesses, mem_cycles]`` per thread. That pins quantum boundaries
(every loop must pause at a checkpoint-bounded limit on the same step)
and the counters mid-run, not only at the end: the fused loop derives
them per burst, so they must be right whenever anything can read them.

Specs may also carry ``jitter_lead``: a program reads far fewer jitter
draws than one chunk of the bulk stream (``repro.sim.jitter.CHUNK``),
so before it starts, core 0 reads a private line until only
``jitter_lead`` draws are left in the first chunk. The chunk boundary
then falls inside the program, on whichever path reaches it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional

from repro.heap.allocator import CheetahAllocator
from repro.pmu.sampler import PMU, PMUConfig
from repro.sim.engine import Engine, Observer
from repro.sim.jitter import CHUNK
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig

_BUFFER_SIZES = (64, 128, 256, 512, 1024, 4096)
_STRIDES = (0, 4, 8, 16, 64)
#: The line the jitter lead-in reads: below the heap, so no program
#: object shares it.
_LEAD_IN_ADDR = 0x1000


class _NullObserver(Observer):
    """Zero-cost observer: forces the engine onto the general per-access
    path without perturbing a single output."""

    cost_per_access = 0

    def on_access(self, tid, core, addr, is_write, latency, size, line):
        return None


# -- program generation ------------------------------------------------------

def generate_spec(seed: int) -> Dict:
    """One random program spec, fully determined by ``seed``.

    The shape is chosen to exercise the paths that diverge in practice:
    tight same-line read/write loops (false sharing, fast-path writes),
    disjoint strided sweeps (prefetcher), pure work batches (PMU
    countdown), mixed single accesses, and optional barrier-separated
    phases (blocking/waking interleavings).
    """
    rng = random.Random(seed)
    num_workers = rng.randint(2, 5)
    num_phases = rng.randint(1, 3)
    buffers = [rng.choice(_BUFFER_SIZES)
               for _ in range(rng.randint(1, 3))]

    def one_op() -> List:
        roll = rng.random()
        buf = rng.randrange(len(buffers))
        offset = rng.randrange(0, buffers[buf], 4)
        if roll < 0.55:
            stride = rng.choice(_STRIDES)
            count = rng.randint(1, 48)
            # Keep the sweep inside the buffer so objects stay distinct.
            if stride:
                count = min(count, max(1, (buffers[buf] - offset) // stride))
            read = rng.random() < 0.8
            write = rng.random() < 0.7 or not read
            return ["loop", buf, offset, stride, count, read, write,
                    rng.choice((0, 0, 3, 11)), rng.randint(1, 12)]
        if roll < 0.7:
            return ["load", buf, offset]
        if roll < 0.85:
            return ["store", buf, offset]
        if roll < 0.95:
            return ["update", buf, offset]
        return ["work", rng.randint(1, 400)]

    workers = [
        [[one_op() for _ in range(rng.randint(1, 4))]
         for _ in range(num_phases)]
        for _ in range(num_workers)
    ]
    spec = {
        "seed": seed,
        "num_cores": rng.choice((2, 4, 8, 48)),
        "jitter": rng.choice((0, 1, 2, 3)),
        "jitter_seed": rng.randrange(1, 2 ** 32),
        "transfer_window": rng.choice((0, 0, 40)),
        "init_buffers": rng.random() < 0.5,
        "barrier_phases": rng.random() < 0.5,
        "pmu_period": rng.choice((16, 32, 64, 128)),
        "buffers": buffers,
        "workers": workers,
    }
    # Drawn last so adding this field left every earlier field of
    # pre-existing seeds unchanged: mid-run checkpoints bound scheduling
    # quanta, so every burst loop must pause on exactly the same step.
    spec["checkpoints"] = (
        sorted(rng.randint(50, 20000) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.4 else [])
    # Drawn last for the same reason. Draws left in the first jitter
    # chunk when the program starts (see the module docstring).
    spec["jitter_lead"] = rng.randint(1, 256)
    return spec


# -- program construction ----------------------------------------------------

def _worker(api, bufs, phases, barrier_parties):
    for pidx, ops in enumerate(phases):
        for op in ops:
            kind = op[0]
            if kind == "loop":
                _, buf, off, stride, count, read, write, work, repeat = op
                yield from api.loop(bufs[buf] + off, stride, count,
                                    read=read, write=write, work=work,
                                    repeat=repeat)
            elif kind == "load":
                yield from api.load(bufs[op[1]] + op[2])
            elif kind == "store":
                yield from api.store(bufs[op[1]] + op[2])
            elif kind == "update":
                yield from api.update(bufs[op[1]] + op[2])
            elif kind == "work":
                yield from api.work(op[1])
            else:  # pragma: no cover - corpus corruption guard
                raise ValueError(f"unknown fuzz op {op!r}")
        if barrier_parties:
            yield from api.barrier(("fuzz-phase", pidx), barrier_parties)


def build_main(spec: Dict):
    """Turn a spec into a thread main function for :meth:`Engine.run`."""

    def fuzz_main(api):
        bufs = []
        for index, size in enumerate(spec["buffers"]):
            addr = yield from api.malloc(size, callsite=f"fuzz.c:{index}")
            bufs.append(addr)
        if spec["init_buffers"]:
            # Serial-phase first touch by the main thread.
            for index, size in enumerate(spec["buffers"]):
                yield from api.loop(bufs[index], 8, min(16, size // 8),
                                    read=False, write=True)
        parties = (len(spec["workers"])
                   if spec["barrier_phases"] else 0)
        tids = []
        for phases in spec["workers"]:
            tid = yield from api.spawn(_worker, bufs, phases, parties)
            tids.append(tid)
        yield from api.join_all(tids)

    return fuzz_main


# -- execution + fingerprinting ---------------------------------------------

def fingerprint(result, pmu: Optional[PMU] = None,
                checkpoints: Optional[List] = None) -> Dict:
    """Every deterministic output of a run, as one comparable dict."""
    machine = result.machine
    fp = {
        "runtime": result.runtime,
        "steps": result.steps,
        "threads": {
            t.tid: [t.clock, t.instructions, t.mem_accesses,
                    t.mem_cycles, t.barrier_waits]
            for t in result.threads.values()
        },
        "machine": [machine.total_accesses, machine.total_cycles,
                    machine.prefetch_hits, machine.stall_cycles],
        "invalidations": sorted(
            machine.directory.lines_with_invalidations().items()),
    }
    if pmu is not None:
        fp["pmu"] = [pmu.samples_fired, pmu.memory_samples,
                     sorted(pmu.overhead_by_tid.items())]
    if checkpoints is not None:
        fp["checkpoints"] = checkpoints
    return fp


def run_spec(spec: Dict, *, observed: bool = False, check: bool = False,
             pmu: bool = False) -> Dict:
    """Run one spec on a fresh machine; returns its fingerprint."""
    config = MachineConfig(num_cores=spec["num_cores"])
    machine = Machine(config, timing_jitter=spec["jitter"],
                      jitter_seed=spec["jitter_seed"],
                      transfer_window=spec["transfer_window"],
                      check=check)
    if spec["jitter"]:
        for _ in range(CHUNK - spec.get("jitter_lead", CHUNK)):
            machine.access_tuple(0, _LEAD_IN_ADDR, False, 0)
    pmu_obj = (PMU(PMUConfig(period=spec["pmu_period"]))
               if pmu else None)
    engine = Engine(config=config, machine=machine, pmu=pmu_obj,
                    observer=_NullObserver() if observed else None,
                    allocator=CheetahAllocator(
                        line_size=config.cache_line_size))
    cycles = spec.get("checkpoints") or ()
    fired: List[List] = []

    def snapshot(eng, now, cycle):
        fired.append([cycle, now,
                      [[t.tid, t.clock, t.instructions, t.mem_accesses,
                        t.mem_cycles] for t in eng.threads.values()],
                      machine.total_accesses, machine.total_cycles])

    for cycle in cycles:
        engine.add_checkpoint(
            cycle, lambda eng, now, c=cycle: snapshot(eng, now, c))
    result = engine.run(build_main(spec))
    return fingerprint(result, pmu_obj,
                       checkpoints=fired if cycles else None)


def _first_divergence(base: Dict, other: Dict) -> Optional[str]:
    for key in base:
        if base[key] != other.get(key):
            return (f"{key}: {base[key]!r} != {other.get(key)!r}")
    return None


def diff_spec(spec: Dict) -> Optional[Dict]:
    """Run ``spec`` through every path; None when all fingerprints agree.

    On divergence returns a structured report naming the variant pair
    and the first differing fingerprint key.
    """
    base = run_spec(spec)
    for variant, kwargs in (
            ("observed", {"observed": True}),
            ("checked", {"check": True})):
        delta = _first_divergence(base, run_spec(spec, **kwargs))
        if delta is not None:
            return {"seed": spec["seed"], "variants": ("fast", variant),
                    "delta": delta}
    pmu_base = run_spec(spec, pmu=True)
    for variant, kwargs in (
            ("pmu-observed", {"pmu": True, "observed": True}),
            ("pmu-checked", {"pmu": True, "check": True})):
        delta = _first_divergence(pmu_base, run_spec(spec, **kwargs))
        if delta is not None:
            return {"seed": spec["seed"], "variants": ("pmu-fast", variant),
                    "delta": delta}
    return None


def fuzz(seed: int, iterations: int) -> List[Dict]:
    """Generate and diff ``iterations`` programs; returns divergences."""
    failures = []
    for index in range(iterations):
        spec = generate_spec(seed + index)
        divergence = diff_spec(spec)
        if divergence is not None:
            failures.append(divergence)
    return failures


# -- corpus I/O ---------------------------------------------------------------

def save_corpus(path, seeds) -> None:
    """Write the specs for ``seeds`` as a JSON corpus file."""
    specs = [generate_spec(seed) for seed in seeds]
    Path(path).write_text(json.dumps({"specs": specs}, indent=1) + "\n")


def load_corpus(path) -> List[Dict]:
    return json.loads(Path(path).read_text())["specs"]
