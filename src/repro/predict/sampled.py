"""Sampled-simulation mode: fully simulate representative bursts.

Where ``mode="predict"`` replaces simulation with arithmetic,
``mode="sampled"`` keeps the real machinery — every burst is an
ordinary full simulation (same thread count, reduced scale) through the
existing burst loops, the PMU, the detector, and (when
``check=True``) the coherence sanitizer — and only the *extrapolation*
to the target scale is analytical. That makes it the trustworthy middle
ground: bit-identical to simulate mode at the burst scale, with
confidence intervals quantifying the run-to-run jitter instead of a
model error.

Each burst runs under its own deterministic jitter seed (the first
burst uses the caller's seed verbatim, so a one-burst sampled run is
bit-compatible with a plain simulate run of the burst-scale clone);
means over bursts are scaled by ``target_scale / burst_scale`` and a
95% Student-t interval over the scaled values rides in the metadata.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.profiler import CheetahConfig
from repro.pmu.sampler import PMUConfig
from repro.predict.model import PredictConfig, _int
from repro.run import RunOutcome, RunSummary, ThreadSummary
from repro.runtime.phases import MAIN_TID
from repro.sim.params import MachineConfig
from repro.workloads.base import Workload

#: Two-sided 95% Student-t critical values by burst count (df = n-1);
#: beyond the table the normal approximation is close enough.
_T95 = {2: 12.706, 3: 4.303, 4: 3.182, 5: 2.776}


def burst_seed(jitter_seed: int, index: int) -> int:
    """Deterministic per-burst jitter seed; index 0 is the seed itself."""
    if index == 0:
        return jitter_seed
    return (jitter_seed + 0x9E3779B1 * index) & 0xFFFFFFFF


def _ci95(values: List[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = _T95.get(n, 2.0)
    return t * math.sqrt(var) / math.sqrt(n)


def run_bursts(workload: Workload, burst_scale: float, count: int, *,
               machine_config: MachineConfig,
               jitter_seed: int,
               pmu_config: Optional[PMUConfig] = None,
               with_cheetah: bool = False,
               cheetah_config: Optional[CheetahConfig] = None,
               check: bool = False) -> List[RunOutcome]:
    """Simulate ``count`` bursts of ``workload`` at ``burst_scale``.

    Exposed separately so tests can assert bit-compatibility: burst 0
    is byte-identical to ``run_workload(workload.clone(scale=...))``
    with the same seed and config.
    """
    from repro.run import run_workload

    config = machine_config
    if config.mode != "simulate":
        config = config.replace(mode="simulate")
    outcomes = []
    for index in range(count):
        burst = workload.clone(scale=burst_scale)
        outcomes.append(run_workload(
            burst, machine_config=config,
            jitter_seed=burst_seed(jitter_seed, index),
            pmu_config=pmu_config, with_cheetah=with_cheetah,
            cheetah_config=cheetah_config, check=check))
    return outcomes


def sampled_outcome(workload: Workload, *,
                    machine_config: Optional[MachineConfig] = None,
                    jitter_seed: int = 0xC0FFEE,
                    pmu_config: Optional[PMUConfig] = None,
                    with_cheetah: bool = False,
                    cheetah_config: Optional[CheetahConfig] = None,
                    check: bool = False,
                    predict_config: Optional[PredictConfig] = None,
                    ) -> RunOutcome:
    """What ``mode="sampled"`` routes to: bursts + extrapolation."""
    config = machine_config or MachineConfig()
    predict = predict_config or PredictConfig()

    target_scale = workload.scale
    burst_scale = predict.burst_scale(target_scale)
    factor = target_scale / burst_scale
    count = predict.bursts

    outcomes = run_bursts(
        workload, burst_scale, count,
        machine_config=config, jitter_seed=jitter_seed,
        pmu_config=pmu_config, with_cheetah=with_cheetah,
        cheetah_config=cheetah_config, check=check)

    runtimes = [o.result.runtime * factor for o in outcomes]
    invalidations = [o.invalidations * factor for o in outcomes]
    steps = [o.result.steps * factor for o in outcomes]

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    # Per-thread summaries: burst 0's threads, volume-scaled. Bursts run
    # at the full thread count, so the structure maps one-to-one.
    first = outcomes[0].result
    threads: Dict[int, ThreadSummary] = {}
    for tid, t in first.threads.items():
        if hasattr(t, "end_clock") and not isinstance(t, ThreadSummary):
            t = ThreadSummary.from_thread(t)
        start = 0 if tid == MAIN_TID else _int(t.start_clock * factor)
        threads[tid] = ThreadSummary(
            tid=tid, name=t.name, core=t.core,
            start_clock=start,
            end_clock=start + _int(t.runtime * factor),
            instructions=_int(t.instructions * factor),
            mem_accesses=_int(t.mem_accesses * factor),
            mem_cycles=_int(t.mem_cycles * factor),
            barrier_waits=_int(t.barrier_waits * factor),
        )

    metadata = {
        "kernel": "sampled",
        "mode": "sampled",
        "predicted": True,
        "sampled": {
            "bursts": count,
            "burst_scale": burst_scale,
            "factor": factor,
            "seeds": [burst_seed(jitter_seed, i) for i in range(count)],
            "burst_runtimes": [o.result.runtime for o in outcomes],
            "burst_invalidations": [o.invalidations for o in outcomes],
            "sanitized": bool(check),
            "ci95": {
                "runtime": round(_ci95(runtimes), 2),
                "invalidations": round(_ci95(invalidations), 2),
            },
        },
        "target": {
            "threads": workload.num_threads,
            "scale": target_scale,
            "thread_factor": 1.0,
        },
    }

    summary = RunSummary(
        runtime=_int(mean(runtimes)),
        steps=_int(mean(steps)),
        invalidations=_int(mean(invalidations)),
        threads=threads,
        metadata=metadata,
    )
    # The report reflects burst 0 (a real, fully-simulated execution);
    # improvement factors are ratio-based and carry over to the target.
    return RunOutcome(result=summary, report=outcomes[0].report, obs=None,
                      fresh=True)
