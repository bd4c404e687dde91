"""Dump a deterministic fingerprint of simulation outputs.

Used to verify that hot-path optimisations leave every deterministic
output bit-identical: run it before and after a change and diff the
JSON. Not a test — the golden determinism test in
``tests/test_determinism.py`` covers the same property in CI.

::

    PYTHONPATH=src python tools/determinism_ref.py > /tmp/ref.json
"""

from __future__ import annotations

import json
import sys

from repro.experiments import scaling
from repro.run import run_workload
from repro.pmu.sampler import PMUConfig
from repro.workloads import get_workload


def fingerprint_run(name: str, *, threads: int, scale: float, seed: int,
                    with_cheetah: bool = False, fixed: bool = False) -> dict:
    cls = get_workload(name)
    outcome = run_workload(
        cls(num_threads=threads, scale=scale, fixed=fixed),
        jitter_seed=seed, with_cheetah=with_cheetah,
        pmu_config=PMUConfig() if with_cheetah else None)
    result = outcome.result
    machine = result.machine
    entry = {
        "runtime": result.runtime,
        "steps": result.steps,
        "total_accesses": result.total_accesses,
        "total_instructions": result.total_instructions,
        "machine_accesses": machine.total_accesses,
        "machine_cycles": machine.total_cycles,
        "prefetch_hits": machine.prefetch_hits,
        "stall_cycles": machine.stall_cycles,
        "invalidations": machine.directory.total_invalidations(),
        "thread_runtimes": {
            str(t.tid): t.runtime for t in result.threads.values()
        },
        "mem_cycles": {
            str(t.tid): t.mem_cycles for t in result.threads.values()
        },
    }
    if with_cheetah:
        report = outcome.report
        entry["report"] = {
            "significant": [
                {"label": r.profile.label,
                 "improvement": r.assessment.improvement,
                 "accesses": r.profile.accesses,
                 "invalidations": r.profile.invalidations}
                for r in report.significant
            ],
            "total_samples": report.total_samples,
            "serial_samples": report.serial_samples,
            "aver_nofs_cycles": report.aver_nofs_cycles,
        }
    return entry


def main() -> int:
    out = {}
    for name, threads in (("linear_regression", 8), ("histogram", 4),
                          ("streamcluster", 4)):
        for seed in (11, 22):
            key = f"{name}-t{threads}-s{seed}"
            out[key + "-native"] = fingerprint_run(
                name, threads=threads, scale=0.25, seed=seed)
            out[key + "-cheetah"] = fingerprint_run(
                name, threads=threads, scale=0.25, seed=seed,
                with_cheetah=True)
    out["linear_regression-fixed"] = fingerprint_run(
        "linear_regression", threads=8, scale=0.25, seed=11, fixed=True)
    sc = scaling.run(scale=0.1, thread_counts=(2, 4))
    out["scaling"] = [
        {"threads": r.threads, "unfixed": r.unfixed_runtime,
         "fixed": r.fixed_runtime} for r in sc.rows
    ]
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
