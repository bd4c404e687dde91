"""Recording workload runs as self-describing traces.

:func:`record_workload` runs a workload with a
:class:`~repro.trace.recorder.TraceRecorder` attached and builds the v2
trace metadata — workload identity, machine config, the allocation map
and global symbols, the live run's verdict — so the saved file carries
everything :func:`repro.trace.replay.replay_outcome` needs to route the
access stream back through the machine and detector without the
original process.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.core.profiler import CheetahConfig
from repro.run import RunOutcome, run_workload
from repro.sim.params import MachineConfig
from repro.trace.recorder import TraceRecorder
from repro.workloads.base import Workload

#: Trace meta schema version (inside the ``#meta`` JSON, independent of
#: the file-format version).
TRACE_META_VERSION = 1


def workload_verdict(report) -> str:
    """Collapse a :class:`~repro.core.profiler.CheetahReport` to the
    workload-level three-way verdict.

    ``"false sharing"`` if any instance classified as false sharing,
    else ``"true sharing"`` if any classified true sharing, else
    ``"no sharing"``. Run the profiler with ``report_true_sharing=True``
    so true-sharing instances are visible to this collapse.
    """
    return sharing_verdict(r.kind.value for r in report.all_instances)


def sharing_verdict(kinds: Iterable[str]) -> str:
    """The three-way verdict over sharing kinds (``Kind`` values):
    false sharing beats true sharing beats no sharing."""
    kinds = set(kinds)
    if "false sharing" in kinds:
        return "false sharing"
    if "true sharing" in kinds:
        return "true sharing"
    return "no sharing"


def trace_meta(workload: Workload, outcome: RunOutcome,
               machine_config: Optional[MachineConfig] = None,
               jitter_seed: int = 0xC0FFEE) -> Dict[str, Any]:
    """v2 ``#meta`` dict for a recorded run.

    Captures what replay needs: the machine config (to re-drive a
    coherence machine), the allocation map and global symbols (to
    attribute detector findings to objects), the workload identity (for
    display and ground-truth lookup) and, when the run was profiled,
    the live verdict to compare replay against.
    """
    result = outcome.result
    config = machine_config or MachineConfig()
    allocations = [
        [a.serial, a.addr, a.size, a.requested_size, a.tid, a.callsite]
        for a in result.allocator.all_allocations()
    ]
    symbols = [[s.name, s.addr, s.size] for s in result.symbols.symbols()]
    meta: Dict[str, Any] = {
        "meta_version": TRACE_META_VERSION,
        "workload": {
            "name": workload.name,
            "num_threads": workload.num_threads,
            "scale": workload.scale,
            "fixed": workload.fixed,
            "seed": workload.seed,
        },
        "jitter_seed": jitter_seed,
        "machine": config.to_dict(),
        "runtime": result.runtime,
        "allocations": allocations,
        "globals": symbols,
    }
    if outcome.report is not None:
        meta["live_verdict"] = workload_verdict(outcome.report)
    return meta


def record_workload(workload: Workload, *,
                    machine_config: Optional[MachineConfig] = None,
                    jitter_seed: int = 0xC0FFEE,
                    limit: Optional[int] = None,
                    with_cheetah: bool = True,
                    cheetah_config: Optional[CheetahConfig] = None,
                    ) -> Tuple[TraceRecorder, Dict[str, Any]]:
    """Run ``workload`` with a trace recorder attached.

    Returns ``(recorder, meta)`` — pass both to
    :func:`repro.trace.storage.save_trace` to produce a self-describing
    v2 trace. ``with_cheetah`` (default on) also profiles the run so the
    meta carries the live verdict; the profiler defaults to
    ``report_true_sharing=True`` because the three-way replay verdict
    needs true-sharing instances to be visible.
    """
    recorder = TraceRecorder(limit=limit)
    config = cheetah_config
    if with_cheetah and config is None:
        config = CheetahConfig(report_true_sharing=True)
    outcome = run_workload(workload, machine_config=machine_config,
                           jitter_seed=jitter_seed, observer=recorder,
                           with_cheetah=with_cheetah,
                           cheetah_config=config)
    meta = trace_meta(workload, outcome,
                      machine_config=machine_config,
                      jitter_seed=jitter_seed)
    if recorder.truncated:
        meta["truncated"] = True
    return recorder, meta
