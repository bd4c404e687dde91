"""Correctness tooling for the simulator: oracle, sanitizer, fuzzer.

The simulator replicates MESI, jitter and PMU-countdown semantics
across three hand-fused hot paths (``Machine.access_tuple``,
``Engine._run_burst``, ``Engine._run_burst_observed``), and Cheetah's
whole result rests on coherence-accurate invalidation counts — so this
package is the safety net they all run under:

- :mod:`repro.sim.check.oracle` — a slow, obviously-correct reference
  re-implementation of the MESI transition tables (per-core state
  letters rather than holder sets, so a bug in one representation is
  unlikely to be mirrored in the other);
- :mod:`repro.sim.check.sanitizer` — ``Machine(check=True)`` shadows
  every access against the oracle and asserts the structural invariants
  (single-writer/multiple-reader, holders/dirty-owner/exclusive-map
  consistency, exact latency reconstruction, jitter-stream conservation,
  pin-table and per-thread clock monotonicity, PMU overhead
  conservation), raising a structured
  :class:`~repro.errors.ValidationError` with the offending access
  trace;
- :mod:`repro.sim.check.fuzz` — a seeded differential fuzzer generating
  random op programs and asserting bit-identical run fingerprints
  across the fused vs. observed burst paths, PMU on/off, and
  sanitizer-on vs. sanitizer-off runs;
- :mod:`repro.sim.check.mutation` — the seeded-mutation self-test: a
  machine with one deliberately corrupted fast-path predicate, proving
  the sanitizer actually catches fast-path divergence;
- :mod:`repro.sim.check.validate` — the ``repro validate`` entry point
  tying all of the above together (plus a serial-vs-parallel experiment
  equivalence check).
"""

from repro.sim.check.oracle import ReferenceMESI
from repro.sim.check.sanitizer import CoherenceSanitizer
# NOTE: the fuzz() driver is deliberately not re-exported here — binding
# it would shadow the ``repro.sim.check.fuzz`` submodule attribute on
# this package, breaking ``from repro.sim.check import fuzz`` module
# imports. Use ``repro.sim.check.fuzz.fuzz`` directly.
from repro.sim.check.fuzz import (
    diff_spec,
    fingerprint,
    generate_spec,
    run_spec,
)
from repro.sim.check.mutation import BrokenFastPathMachine, run_mutation_selftest

__all__ = [
    "BrokenFastPathMachine",
    "CoherenceSanitizer",
    "ReferenceMESI",
    "diff_spec",
    "fingerprint",
    "generate_spec",
    "run_mutation_selftest",
    "run_spec",
]
