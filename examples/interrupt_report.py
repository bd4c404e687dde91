#!/usr/bin/env python
"""Mid-run reporting: "interrupted by the user" (paper Section 2.4).

Cheetah reports "either at the end of an execution, or when interrupted
by the user". Long-running services can't wait for the end; this
example installs checkpoints that snapshot the report while the program
is still running and shows detection firing long before completion.

Run:
    python examples/interrupt_report.py
"""

from repro.core.profiler import CheetahProfiler
from repro.heap.allocator import CheetahAllocator
from repro.pmu.sampler import PMU, PMUConfig
from repro.sim.engine import Engine
from repro.sim.params import MachineConfig
from repro.symbols.table import SymbolTable
from repro.workloads.phoenix import LinearRegression


def main() -> None:
    workload = LinearRegression(num_threads=8)
    symbols = SymbolTable()
    workload.setup(symbols)
    config = MachineConfig()
    engine = Engine(config=config, symbols=symbols,
                    pmu=PMU(PMUConfig(period=64)),
                    allocator=CheetahAllocator(line_size=64))
    profiler = CheetahProfiler()
    profiler.attach(engine)

    snapshots = []

    def interrupt(eng, now):
        report = profiler.report_now(now)
        best = report.best()
        snapshots.append((now, report))
        found = (f"{len(report.significant)} significant, top: "
                 f"{best.profile.label} ({best.improvement:.2f}x)"
                 if best else "nothing significant yet")
        print(f"  [t={now:>9,}] {found}")

    print("interrupting the run every ~200k cycles:")
    for cycle in range(200_000, 1_200_001, 200_000):
        engine.add_checkpoint(cycle, interrupt)

    result = engine.run(workload.main)
    final = profiler.finalize(result)
    print(f"\nfinal report at t={result.runtime:,}:")
    best = final.best()
    print(f"  {best.profile.label}: predicted {best.improvement:.2f}x")
    first_hit = next((t for t, rep in snapshots if rep.significant), None)
    if first_hit:
        print(f"\nthe instance was already visible at t={first_hit:,} — "
              f"{100 * first_hit / result.runtime:.0f}% into the run.")


if __name__ == "__main__":
    main()
