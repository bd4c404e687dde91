"""Host-speed probe: puts end-to-end times on one host-speed scale.

The shared hosts this benchmark runs on change speed by up to 2x in
phases of seconds to minutes, so raw host seconds from two runs a few
minutes apart differ more than a change to the program would. The
benchmark therefore times a fixed pure-Python loop next to the work and
scales the end-to-end times of the ``profile`` and ``native`` workloads
by how fast the host ran that loop around the same moment::

    normalised = raw * REFERENCE_S / probe_s

The probe runs between every two timed items (cells, fresh-process
set-ups). ``probe_s`` for an item is the median of the :data:`NEAREST`
probes nearest it: the two on either side of it and two more each way. The probe flips between a fast and a slow state
every few seconds and the program follows only part of each flip, so
the median over a few seconds follows the host's drift without
copying each flip. ``REFERENCE_S`` is the loop's time on the host the
baseline was taken on. A normalised time reads "seconds this work
would have taken on that host"; the raw times are printed too.

The loop runs in its own process that never imports the program, so
nothing the program does to its interpreter (hooks, GC settings)
changes it, and it runs only while the benchmark waits for it, never
beside the work. It is pinned to the CPU the caller last ran on, so
it measures the CPU the work ran on.

Run as a script, this file is that process: it reads one request per
line on standard input and answers each with the loop's time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List, Optional

#: Loop iterations of one probe (7-20 ms on the baseline host).
ITERATIONS = 25_000
#: The probe's time on the host the baseline was measured on.
REFERENCE_S = 0.015
#: Probes whose median scales one item (see :func:`factors`).
NEAREST = 6
#: Seconds to wait for the probe process to exit.
TIMEOUT = 30.0

_SIZE = 1 << 18
_SPREAD = 40503  # odd, so ``i * _SPREAD`` walks the whole table


class _Slot:
    __slots__ = ("count", "last")

    def __init__(self):
        self.count = 0
        self.last = 0


def _loop(table: List[int], n: int) -> int:
    """The probed work: strided list reads over a 2 MB table (cache
    misses), dict updates, attribute writes and branches, the mix the
    simulator's interpreter loop runs."""
    counts: dict = {}
    slot = _Slot()
    acc = 0
    mask = len(table) - 1
    for i in range(n):
        k = (i * _SPREAD) & mask
        acc += table[k] & 7
        j = k & 1023
        counts[j] = counts.get(j, 0) + 1
        slot.count += 1
        if acc & 1:
            slot.last = acc
    return acc + len(counts) + slot.count


def _serve(stdin, stdout) -> None:
    """Answer each request line (the CPU to run on, or -1) with the
    time of a warm probe: the loop runs twice, the second is timed."""
    table = list(range(_SIZE))
    for line in stdin:
        cpu = int(line)
        if cpu >= 0 and hasattr(os, "sched_setaffinity"):
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass
        _loop(table, ITERATIONS)
        start = time.perf_counter()
        _loop(table, ITERATIONS)
        stdout.write(f"{time.perf_counter() - start!r}\n")
        stdout.flush()


def current_cpu() -> int:
    """The CPU this process last ran on (-1 when unknown)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return int(fields[36])  # field 39, "processor"
    except (OSError, IndexError, ValueError):
        return -1


class Probe:
    """The probe process; use as a context manager so it always ends."""

    def __init__(self):
        self.proc: Optional[subprocess.Popen] = None
        self.samples: List[float] = []

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, "-I", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1)
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def measure(self) -> float:
        """One probe on the caller's current CPU, in seconds."""
        assert self.proc is not None, "probe process not started"
        self.proc.stdin.write(f"{current_cpu()}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed probe process died")
        seconds = float(line)
        self.samples.append(seconds)
        return seconds

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=TIMEOUT)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.proc = None


def factors(probes: List[float]) -> List[float]:
    """Multipliers that put the times of the items measured between
    consecutive ``probes`` on the reference host's scale: item ``i``
    ran between ``probes[i]`` and ``probes[i + 1]`` and is scaled by the
    median of the :data:`NEAREST` probes around it."""
    side = NEAREST // 2
    out = []
    for index in range(len(probes) - 1):
        low = max(0, min(index + 1 - side, len(probes) - NEAREST))
        out.append(REFERENCE_S / statistics.median(
            probes[low:low + NEAREST]))
    return out


if __name__ == "__main__":
    _serve(sys.stdin, sys.stdout)
