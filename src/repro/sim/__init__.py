"""Simulated multicore machine substrate.

The paper evaluates Cheetah on a 48-core AMD Opteron with private L1/L2
caches and a shared L3. This package substitutes a deterministic
discrete-event model of that hardware:

- :mod:`repro.sim.params` — machine configuration and the cycle-latency model;
- :mod:`repro.sim.coherence` — a MESI-style per-line directory that yields
  ground-truth invalidation counts;
- :mod:`repro.sim.machine` — the machine facade mapping (core, address,
  read/write) to an access latency;
- :mod:`repro.sim.ops` — the operations a simulated thread may perform;
- :mod:`repro.sim.engine` — the min-clock discrete-event scheduler that
  interleaves threads and runs whole programs.
"""

from repro.sim.coherence import CoherenceDirectory, LineState
from repro.sim.machine import AccessOutcome, Machine
from repro.sim.ops import (
    Barrier,
    Fence,
    Free,
    Join,
    Load,
    LoopAccess,
    Malloc,
    Spawn,
    Store,
    Work,
)
from repro.sim.params import LatencyModel, MachineConfig

# Engine/RunResult are bound on first use (PEP 562): the engine module
# imports the threading runtime, which itself imports repro.sim.ops, so
# an eager import here would be circular.
def __getattr__(name):
    if name not in ("Engine", "RunResult"):
        raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
    from repro.sim import engine
    value = globals()[name] = getattr(engine, name)
    return value


def __dir__():
    return sorted(set(globals()).union(__all__))


__all__ = [
    "AccessOutcome",
    "Barrier",
    "CoherenceDirectory",
    "Engine",
    "Fence",
    "Free",
    "Join",
    "LatencyModel",
    "LineState",
    "Load",
    "LoopAccess",
    "MachineConfig",
    "Machine",
    "Malloc",
    "RunResult",
    "Spawn",
    "Store",
    "Work",
]
