"""Dump a deterministic fingerprint of simulation outputs.

Used to verify that hot-path optimisations leave every deterministic
output bit-identical: run it before and after a change and diff the
JSON::

    PYTHONPATH=src python tools/determinism_ref.py > ref.json

``tests/data/determinism_golden.json`` holds this script's output for
the single runs in :data:`RUNS` (every key but ``scaling``), and
``tests/test_determinism.py`` recomputes each of them with
:func:`fingerprint_run` and compares, pinning simulated outputs across
commits. After a change that alters outputs on purpose, regenerate the
golden from this output without the ``scaling`` entry.
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


def _runs() -> dict:
    runs = {}
    for name, threads in (("linear_regression", 8), ("histogram", 4),
                          ("streamcluster", 4)):
        for seed in (11, 22):
            key = f"{name}-t{threads}-s{seed}"
            args = dict(name=name, threads=threads, scale=0.25, seed=seed)
            runs[key + "-native"] = args
            runs[key + "-cheetah"] = dict(args, with_cheetah=True)
    runs["linear_regression-fixed"] = dict(
        name="linear_regression", threads=8, scale=0.25, seed=11,
        fixed=True)
    return runs


#: Output key -> :func:`fingerprint_run` arguments for each single run.
RUNS = _runs()


def main() -> int:
    out = {key: fingerprint_run(**args) for key, args in RUNS.items()}
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
