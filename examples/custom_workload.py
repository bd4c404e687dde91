#!/usr/bin/env python
"""Profiling your own code: write a workload, find the bug, fix it.

This example builds a small producer/statistics program *with a planted
false sharing bug* directly against the public API (no predefined
workload), lets Cheetah find it, and then uses the word-level report to
choose the padding.

The bug: per-thread statistics structs of 16 bytes packed into one
array, so four threads share each 64-byte line.

Run:
    python examples/custom_workload.py
"""

from repro import Session

NUM_THREADS = 8
ITEMS_PER_THREAD = 1200
STATS_STRIDE_BUGGY = 16  # four 16-byte structs per 64-byte line
STATS_STRIDE_FIXED = 64  # one struct per line


def make_program(stats_stride):
    """A fork-join program: threads consume private queues and bump
    per-thread statistics (count, sum, min, max = 4 words)."""

    def worker(api, queue, stats):
        for item in range(ITEMS_PER_THREAD):
            # Read the next item from this thread's private queue.
            yield from api.load(queue + (item % 256) * 4)
            yield from api.work(4)  # process it
            # Update the four statistics words (the falsely-shared part).
            yield from api.loop(stats, 4, 4, read=True, write=True, work=1)

    def main(api):
        queues = yield from api.malloc(NUM_THREADS * 1024,
                                       callsite="pipeline.py:queues")
        # Initialise the queues serially (fills the serial-phase samples
        # Cheetah calibrates its prediction against).
        yield from api.loop(queues, 4, NUM_THREADS * 256, read=False,
                            write=True, work=1)
        yield from api.loop(queues, 4, NUM_THREADS * 256, write=False,
                            work=1, repeat=2)
        stats = yield from api.malloc(NUM_THREADS * stats_stride,
                                      callsite="pipeline.py:stats")
        tids = []
        for i in range(NUM_THREADS):
            tid = yield from api.spawn(worker, queues + i * 1024,
                                       stats + i * stats_stride)
            tids.append(tid)
        yield from api.join_all(tids)
        # Merge the statistics serially.
        yield from api.loop(stats, stats_stride, NUM_THREADS, write=False,
                            work=2)

    return main


def main() -> None:
    print("=== profiling the buggy layout (16-byte stats structs) ===\n")
    buggy = Session(make_program(STATS_STRIDE_BUGGY))
    report = buggy.report()
    print(report.render())

    best = report.best()
    if best is None:
        print("nothing significant found")
        return

    print("\nThe word map shows each thread on its own words of shared "
          "lines -> false sharing.")
    print("Fix: pad the stats struct to one cache line (16 -> 64 bytes).")

    fixed = Session(make_program(STATS_STRIDE_FIXED))
    real = buggy.run().runtime / fixed.run().runtime
    print(f"\nreal speedup:      {real:.2f}x")
    print(f"Cheetah predicted: {best.improvement:.2f}x")

    print("\n=== re-profiling the fixed layout ===")
    if fixed.report().significant:
        print("still reported (unexpected)")
    else:
        print("Cheetah reports no significant false sharing. Bug fixed.")


if __name__ == "__main__":
    main()
