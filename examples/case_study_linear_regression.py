#!/usr/bin/env python
"""The paper's flagship case study (Sections 4.2.1, Figures 5 and 6).

Phoenix linear_regression passes one ``tid_args`` array of 56-byte
per-thread structs to its workers; each worker updates its own struct's
accumulators per input point, and adjacent structs share cache lines.
Cheetah pinpoints the allocation site, shows the word-level access map
(each word touched by exactly one thread — the signature of FALSE
sharing), and predicts the speedup of padding the struct, which we then
verify by actually applying the fix.

Run:
    python examples/case_study_linear_regression.py [num_threads]
"""

import sys

from repro import Session
from repro.workloads.phoenix import (
    LINEAR_REGRESSION_CALLSITE, LinearRegression,
)


def main() -> None:
    threads = int(sys.argv[1]) if len(sys.argv) > 1 else 16

    print(f"=== profiling linear_regression with {threads} threads ===\n")
    session = Session(LinearRegression, threads=threads)
    report = session.report()
    print(report.render())

    best = report.best()
    if best is None:
        print("no significant instance found (try more threads)")
        return

    assert best.profile.label == LINEAR_REGRESSION_CALLSITE

    print("\n=== the fix: pad lreg_args to a full cache line ===")
    print("typedef struct { ... long long SX, SY, SXX, SYY, SXY;")
    print("                 char padding[64 - sizeof(...)...]; } lreg_args;")

    original = session.run()
    fixed = Session(LinearRegression, threads=threads, fixed=True).run()
    real = original.runtime / fixed.runtime

    print(f"\nruntime before fix: {original.runtime:>12,} cycles")
    print(f"runtime after  fix: {fixed.runtime:>12,} cycles")
    print(f"real improvement:   {real:.2f}x")
    print(f"Cheetah predicted:  {best.improvement:.2f}x "
          f"({(best.improvement - real) / real * 100:+.1f}% off)")
    print("\n(paper at 16 threads: predicted 6.44x, real 6.7x; single "
          "runs vary with\ncontention timing — Table 1 averages several "
          "seeds, see examples/assess_precision.py)")


if __name__ == "__main__":
    main()
