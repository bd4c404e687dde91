"""``repro validate``: run the whole correctness net in one command.

Four stages, each independently reportable:

1. **invariant suite** — real workloads re-run under the sanitizer
   (``Machine(check=True)``), shadowing every access against the
   reference MESI oracle;
2. **differential fuzzer** — seeded random programs diffed across the
   fused/observed/sanitized execution paths (see
   :mod:`repro.sim.check.fuzz`);
3. **parallel equivalence** — a serial experiment run compared row for
   row against the same experiment fanned over worker processes
   (``repro experiment ... --jobs N`` must be an implementation detail,
   never a result change);
4. **mutation self-test** — a deliberately corrupted fast-path predicate
   must be caught by the sanitizer, proving the net actually holds.

Triage: a fuzzer divergence prints its program seed; re-run just that
program with ``repro validate --seed <seed> --iterations 1`` (add
``--smoke`` to skip the slower stages while iterating).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ValidationError
from repro.sim.check import fuzz as fuzz_mod
from repro.sim.check.mutation import run_mutation_selftest

#: (workload, threads, scale) triples for the sanitized-workload stage.
SMOKE_WORKLOADS = (
    ("histogram", 4, 0.1),
)
FULL_WORKLOADS = (
    ("histogram", 4, 0.25),
    ("linear_regression", 8, 0.25),
    ("streamcluster", 4, 0.25),
)

DEFAULT_SEED = 0xD1FF
SMOKE_ITERATIONS = 4
FULL_ITERATIONS = 24


def run_invariant_suite(smoke: bool = False, echo=print) -> List[str]:
    """Sanitized workload runs; returns failure descriptions (empty = ok)."""
    from repro.run import run_workload
    from repro.workloads import get_workload

    failures = []
    for name, threads, scale in (SMOKE_WORKLOADS if smoke else FULL_WORKLOADS):
        cls = get_workload(name)
        try:
            outcome = run_workload(cls(num_threads=threads, scale=scale),
                                   check=True)
        except ValidationError as error:
            failures.append(f"{name}: {error}")
            echo(f"  {name:<20} FAIL [{error.invariant}]")
            continue
        sanitizer = outcome.result.machine.sanitizer
        echo(f"  {name:<20} ok "
             f"({sanitizer.accesses_checked:,} accesses shadowed)")
    return failures


def run_fuzzer(seed: int, iterations: int, echo=print) -> List[dict]:
    """Differential fuzzer over ``iterations`` seeded programs."""
    failures = fuzz_mod.fuzz(seed, iterations)
    for failure in failures:
        echo(f"  seed {failure['seed']}: "
             f"{' vs '.join(failure['variants'])} diverged: "
             f"{failure['delta']}")
    if not failures:
        echo(f"  {iterations} programs (seeds {seed}..{seed + iterations - 1})"
             " bit-identical across all execution paths")
    return failures


def run_parallel_equivalence(echo=print) -> List[str]:
    """Serial vs. --jobs 2 experiment runners must produce equal rows."""
    from repro.experiments import scaling
    from repro.experiments.parallel import run_scaling

    serial = scaling.run(scale=0.1, thread_counts=(2, 4))
    fanned = run_scaling(scale=0.1, thread_counts=(2, 4), jobs=2)
    failures = []
    for left, right in zip(serial.rows, fanned.rows):
        if left != right:
            failures.append(f"scaling row diverged: {left!r} != {right!r}")
    if len(serial.rows) != len(fanned.rows):
        failures.append("scaling row counts differ between serial and "
                        f"--jobs 2: {len(serial.rows)} != {len(fanned.rows)}")
    echo("  scaling serial == scaling --jobs 2" if not failures
         else f"  {len(failures)} row(s) diverged")
    return failures


def run_selftest(echo=print) -> List[str]:
    """The planted mutation — a corrupted fast-path write predicate —
    must be caught by the sanitizer."""
    try:
        caught = run_mutation_selftest()
    except Exception as error:  # SimulationError or an unexpected leak
        echo(f"  FAIL: {error}")
        return [str(error)]
    echo(f"  corrupted write predicate caught [{caught.invariant}]")
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-validate",
        description="Coherence sanitizer invariant suite + differential "
                    "fuzzer + mutation self-test.")
    parser.add_argument("--smoke", action="store_true",
                        help="short CI variant: fewer workloads and fuzz "
                             "programs, skip the parallel-equivalence stage")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base seed for the differential fuzzer "
                             "(re-run a reported divergence with --seed N "
                             "--iterations 1)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="fuzz program count (default: "
                             f"{FULL_ITERATIONS}, smoke: {SMOKE_ITERATIONS})")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    iterations = args.iterations
    if iterations is None:
        iterations = SMOKE_ITERATIONS if args.smoke else FULL_ITERATIONS

    failures: List = []
    print("[1/4] invariant suite (sanitized workload runs)")
    failures += run_invariant_suite(smoke=args.smoke)
    print("[2/4] differential fuzzer")
    failures += run_fuzzer(args.seed, iterations)
    if args.smoke:
        print("[3/4] parallel equivalence: skipped (--smoke)")
    else:
        print("[3/4] parallel equivalence (serial vs --jobs 2)")
        failures += run_parallel_equivalence()
    print("[4/4] seeded-mutation self-test")
    failures += run_selftest()

    if failures:
        print(f"\nvalidate: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("\nvalidate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
