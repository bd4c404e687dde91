#!/usr/bin/env python
"""Smoke-check the windowed detector against the offline detector.

For each smoke workload the script runs the Cheetah profiler twice —
``detector_mode="offline"`` and ``detector_mode="windowed"`` — on the
same machine/seed, then asserts the streaming contract:

- identical simulated runtimes (the windowed table must not perturb the
  run);
- identical end-of-run verdicts and reported objects (the windowed
  detector forwards every sample to the offline core);
- on every workload the reference table documents as a true positive,
  at least one incremental finding emitted strictly before run end.

It prints one deterministic fingerprint line per workload and exits
non-zero on any violation.

Usage: PYTHONPATH=src python tools/streaming_parity.py
"""

import sys

from repro.core.profiler import CheetahConfig
from repro.predict.validate import SMOKE_SET
from repro.run import run_workload
from repro.sim.params import MachineConfig
from repro.workloads import get_workload

#: Workloads the ground-truth table documents as false-sharing positives.
TRUE_POSITIVES = frozenset(
    ("synthetic", "array_increment", "linear_regression", "streamcluster"))


def main() -> int:
    failures = 0
    for name, threads, scale in SMOKE_SET:
        cls = get_workload(name)
        runs = {}
        for mode in ("offline", "windowed"):
            runs[mode] = run_workload(
                cls(num_threads=threads, scale=scale),
                machine_config=MachineConfig(), jitter_seed=11,
                with_cheetah=True,
                cheetah_config=CheetahConfig(detector_mode=mode))
        offline, windowed = runs["offline"], runs["windowed"]

        problems = []
        if offline.runtime != windowed.runtime:
            problems.append(
                f"runtime diverged: {offline.runtime} vs {windowed.runtime}")
        off_verdict = bool(offline.report.significant)
        win_verdict = bool(windowed.report.significant)
        if off_verdict != win_verdict:
            problems.append(
                f"verdict diverged: offline={off_verdict} "
                f"windowed={win_verdict}")
        off_objects = [(r.profile.key, r.profile.accesses)
                       for r in offline.report.all_instances]
        win_objects = [(r.profile.key, r.profile.accesses)
                       for r in windowed.report.all_instances]
        if off_objects != win_objects:
            problems.append("reported objects diverged")

        findings = windowed.profiler.detector.findings
        early = [f for f in findings if f.timestamp < windowed.runtime]
        if name in TRUE_POSITIVES and not early:
            problems.append("true positive produced no early finding")

        first = early[0].timestamp if early else "-"
        print(f"{name:<20} threads={threads} verdict={win_verdict} "
              f"findings={len(findings)} first_finding={first} "
              f"runtime={windowed.runtime}")
        for problem in problems:
            failures += 1
            print(f"  FAIL: {problem}", file=sys.stderr)
    if failures:
        print(f"{failures} streaming-parity failure(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
