"""The ``profile`` and ``native`` workloads: closed loops of simulation cells.

A cell is one ``run_workload`` call on a registry workload at its
registry thread count, ``machine_defaults`` and default configs (no
kernel or mode knob). ``profile`` cells run under Cheetah
(``with_cheetah=True``, default :class:`CheetahConfig`); ``native`` cells
run uninstrumented. The loop runs one cell at a time, pass after pass,
until the measuring time is over and every cell ran at least once; the
host-speed probe runs between cells and scales each run time.

Each cell run is checked:

- ``profile`` reports are judged against the workload's declared
  :class:`~repro.workloads.GroundTruth` by the detection-table rules;
- every run's simulated fingerprint must equal the first run of the
  same cell in this process, and, at the default seed and scale, the
  reference shipped in ``references.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import hostspeed, layers, stats
from perfbench.tracer import Tracer

#: Seed the shipped references were generated with.
DEFAULT_SEED = 11

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")

#: Detection-table set, then the Phoenix/PARSEC apps in which the paper
#: reports false sharing.
PROFILE_NAMES = (
    "producer_consumer_ring", "work_stealing_deque", "cas_retry_queue",
    "seqlock_read_mostly", "numa_ping_pong", "array_increment", "kmeans",
    "linear_regression", "streamcluster", "histogram", "reverse_index",
    "word_count",
)

#: The 17 Figure-4 applications (the "pthreads" column).
NATIVE_NAMES = (
    "blackscholes", "bodytrack", "canneal", "facesim", "fluidanimate",
    "freqmine", "histogram", "kmeans", "linear_regression",
    "matrix_multiply", "pca", "string_match", "reverse_index",
    "streamcluster", "swaptions", "word_count", "x264",
)


@dataclass(frozen=True)
class Cell:
    """One generated simulation input."""

    id: str
    workload: str
    profiled: bool
    jitter_seed: int
    workload_seed: int
    scale: float = 1.0


def make_cells(workload: str, seed: int, scale: float = 1.0) -> List[Cell]:
    """The cells of ``workload`` ("profile" or "native") for ``seed``:
    jitter and workload seeds are drawn from one seeded stream."""
    profiled = workload == "profile"
    names = PROFILE_NAMES if profiled else NATIVE_NAMES
    rng = random.Random(f"perfbench/{workload}/{seed}")
    return [Cell(id=f"{workload}/{name}", workload=name, profiled=profiled,
                 jitter_seed=rng.getrandbits(32) | 1,
                 workload_seed=rng.getrandbits(16), scale=scale)
            for name in names]


def build(cell: Cell) -> Tuple[Any, Any]:
    """The workload instance and machine config a cell runs with."""
    from repro.sim.params import MachineConfig
    from repro.workloads import get_workload
    cls = get_workload(cell.workload)
    machine = (MachineConfig(**cls.machine_defaults)
               if cls.machine_defaults else None)
    return cls(scale=cell.scale, seed=cell.workload_seed), machine


def run_cell(cell: Cell) -> Any:
    """One cell run: the program's outcome."""
    from repro.run import run_workload
    workload, machine = build(cell)
    return run_workload(workload, machine_config=machine,
                        jitter_seed=cell.jitter_seed,
                        with_cheetah=cell.profiled)


def fingerprint(outcome: Any) -> Dict[str, Any]:
    """Simulated behaviour of a run: runtime cycles, ground-truth
    invalidations, accesses, per-thread instructions (hashed) and the
    significant objects of the report."""
    result = outcome.result
    instructions = [thread.instructions
                    for _, thread in sorted(result.threads.items())]
    digest = hashlib.sha256(
        ",".join(map(str, instructions)).encode()).hexdigest()[:16]
    report = outcome.report
    return {
        "runtime": outcome.runtime,
        "invalidations": outcome.invalidations,
        "accesses": result.total_accesses,
        "threads": len(instructions),
        "instructions_sha": digest,
        "significant": sorted(item.profile.label
                              for item in report.significant)
        if report is not None else [],
    }


def observed_verdict(report: Any) -> str:
    """Three-way verdict of a report (the detection-table collapse)."""
    kinds = {instance.kind.value for instance in report.all_instances}
    for verdict in ("false sharing", "true sharing"):
        if verdict in kinds:
            return verdict
    return "no sharing"


def judge(workload: str, report: Any) -> List[str]:
    """Detection-table rules against the declared ground truth:
    significant false sharing must be reported as significant; true or
    no sharing must never be reported as false sharing; negligible
    false sharing passes either way."""
    from repro.workloads import Verdict, get_workload
    truth = get_workload(workload).ground_truth
    observed = observed_verdict(report)
    significant = bool(report.significant)
    if truth.verdict is Verdict.FALSE_SHARING:
        if truth.significant and not (observed == "false sharing"
                                      and significant):
            return [f"verdict: {workload} declares significant false "
                    f"sharing, observed {observed} "
                    f"(significant={significant})"]
        return []
    if observed == "false sharing" or significant:
        return [f"verdict: {workload} declares {truth.verdict.value}, "
                f"observed {observed} (significant={significant})"]
    return []


def load_references(seed: int, scale: float) -> Dict[str, Dict[str, Any]]:
    """Shipped fingerprints, when they apply to this seed and scale."""
    if seed != DEFAULT_SEED or scale != 1.0:
        return {}
    with open(REFERENCES, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["cells"]


class Checker:
    """Checks one cell run; remembers each cell's first fingerprint."""

    def __init__(self, references: Dict[str, Dict[str, Any]]):
        self.references = references
        self.first: Dict[str, Dict[str, Any]] = {}
        self.kernels: Dict[str, int] = {}

    def check(self, cell: Cell, outcome: Any) -> List[str]:
        problems: List[str] = []
        kernel = outcome.result.metadata.get("kernel", "?")
        self.kernels[kernel] = self.kernels.get(kernel, 0) + 1
        if cell.profiled:
            problems += judge(cell.workload, outcome.report)
        got = fingerprint(outcome)
        first = self.first.setdefault(cell.id, got)
        if got != first:
            problems.append(f"repeat: {cell.id} fingerprint changed "
                            f"between runs: {first} -> {got}")
        want = self.references.get(cell.id)
        if want is not None and got != want:
            problems.append(f"reference: {cell.id} fingerprint {got} "
                            f"!= shipped {want}")
        return problems


def _attempt(tally: stats.Tally, cell: Cell,
             run: Callable[[Cell], Any], checker: Checker
             ) -> Tuple[Optional[Any], float]:
    """Run and check one cell; failures are counted, never raised."""
    start = time.perf_counter()
    try:
        outcome = run(cell)
    except Exception as exc:  # a failing cell must not stop the loop
        tally.record([f"error: {cell.id}: {type(exc).__name__}: {exc}"])
        return None, time.perf_counter() - start
    seconds = time.perf_counter() - start
    tally.record(checker.check(cell, outcome))
    return outcome, seconds


@dataclass
class LoopResult:
    """What the untraced closed loop measured: each cell's run times in
    host seconds (``seconds``) and on the probe's reference scale
    (``scaled``)."""

    seconds: Dict[str, List[float]]
    scaled: Dict[str, List[float]]
    accesses: Dict[str, int]
    passes: int
    wall: float

    def cell_medians(self, scaled: bool = True) -> Dict[str, float]:
        times = self.scaled if scaled else self.seconds
        return {cid: statistics.median(values)
                for cid, values in times.items() if values}


def closed_loop(cells: List[Cell], seconds: float, tally: stats.Tally,
                checker: Checker, probe: hostspeed.Probe) -> LoopResult:
    """Run cells in order, pass after pass, until ``seconds`` are over
    and every cell ran at least once. The host-speed probe runs before
    the first cell and after every cell; each run time is scaled by the
    probes around it (:func:`hostspeed.factors`)."""
    runs: List[Tuple[str, Optional[float]]] = []  # failed runs: None
    accesses: Dict[str, int] = {}
    probes = [probe.measure()]
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    done = False
    while not done:
        passes += 1
        for index, cell in enumerate(cells):
            outcome, elapsed = _attempt(tally, cell, run_cell, checker)
            probes.append(probe.measure())
            runs.append((cell.id, None if outcome is None else elapsed))
            if outcome is not None:
                accesses[cell.id] = outcome.result.total_accesses
            if time.perf_counter() >= deadline and (
                    passes > 1 or index == len(cells) - 1):
                done = True
                break
    wall = time.perf_counter() - start
    times: Dict[str, List[float]] = {cell.id: [] for cell in cells}
    scaled: Dict[str, List[float]] = {cell.id: [] for cell in cells}
    for (cid, elapsed), factor in zip(runs, hostspeed.factors(probes)):
        if elapsed is not None:
            times[cid].append(elapsed)
            scaled[cid].append(elapsed * factor)
    return LoopResult(seconds=times, scaled=scaled, accesses=accesses,
                      passes=passes, wall=wall)


def end_to_end(loop: LoopResult, scaled: bool = True
               ) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of one loop, with their sample counts, from
    the scaled run times (or the raw ones).

    Per-cell medians make the figures independent of where the time
    limit cut the last pass: one pass costs the sum of the cells'
    median times. Their geometric mean weighs every cell alike, so a
    10% gain on any one cell moves it by the same share.
    """
    medians = loop.cell_medians(scaled)
    pass_s = sum(medians.values())
    accesses = sum(loop.accesses[cid] for cid in medians)
    n = sum(len(values) for values in loop.seconds.values())
    return {
        "sim_acc_per_s": {"value": accesses / pass_s, "unit": "1/s", "n": n},
        "jobs_per_s": {"value": len(medians) / pass_s, "unit": "1/s",
                       "n": n},
        "cold_gmean_ms": {
            "value": statistics.geometric_mean(medians.values()) * 1e3,
            "unit": "ms", "n": len(medians)},
    }


def traced_pass(cells: List[Cell], tally: stats.Tally, checker: Checker
                ) -> Tuple[Dict[str, float], Dict[str, Any], Dict[str, Any]]:
    """One pass, each cell run untraced then traced.

    Returns the per-layer metrics, the tracer snapshot and the two
    wall times.
    """
    tracer = Tracer()

    def traced(cell: Cell) -> Any:
        layers.install(tracer)
        try:
            tracer.set_request(cell.id)
            outcome = tracer.span(layers.CELL, run_cell)(cell)
        finally:
            tracer.uninstall()
        layers.count_samples(tracer, outcome)
        return outcome

    untraced_s = traced_s = 0.0
    for cell in cells:
        # The checker compares both runs with the cell's first
        # fingerprint, so a traced run that simulates differently fails.
        untraced_s += _attempt(tally, cell, run_cell, checker)[1]
        traced_s += _attempt(tally, cell, traced, checker)[1]
    snap = tracer.snapshot()
    ratio = traced_s / untraced_s if untraced_s else 0.0
    values = layers.compute(snap, requests=len(cells), overhead_ratio=ratio)
    return values, snap, {"untraced_s": untraced_s, "traced_s": traced_s}


def setup_ready(workload: str, seed: int, scale: float) -> None:
    """Everything the first cell needs, as a fresh process pays it:
    imports, cell generation and the first workload instance."""
    import repro.run  # noqa: F401  (the cell entry point)
    cells = make_cells(workload, seed, scale)
    build(cells[0])


def write_references(seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Regenerate ``references.json`` from the current program."""
    cells_out: Dict[str, Any] = {}
    for workload in ("profile", "native"):
        for cell in make_cells(workload, seed):
            cells_out[cell.id] = fingerprint(run_cell(cell))
    data = {"seed": seed, "scale": 1.0, "cells": cells_out}
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return data
