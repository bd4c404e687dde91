#!/usr/bin/env python
"""CI smoke test for the concurrent workload families and trace replay.

Two checks, both against each workload's declared ``ground_truth``:

1. **Detection table** — runs the detection experiment over every
   concurrent family plus the micro/kmeans anchors and requires every
   row ``ok``: 100% recall on the significant false-sharing families
   and zero false positives on the true-sharing/no-sharing ones.
2. **Replay equivalence** — records one trace per concurrent family,
   saves it (gzipped), loads it back, and replays it through the
   machine + detector; the replay verdict must equal the live run's.

Usage: PYTHONPATH=src python tools/detection_smoke.py
"""

import sys
import tempfile

from repro.experiments import detection
from repro.sim.params import MachineConfig
from repro.trace import load_trace, load_trace_meta, record_workload, \
    replay_outcome, save_trace
from repro.workloads import get_workload

#: One trace per family, at the fastest scale where the live (sampled)
#: verdict is stable — see tests/test_trace_replay.py.
REPLAY_SCALES = {
    "producer_consumer_ring": 0.4,
    "work_stealing_deque": 0.4,
    "cas_retry_queue": 0.4,
    "seqlock_read_mostly": 0.75,
    "numa_ping_pong": 0.3,
}


def fail(message):
    print(f"detection_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_detection_table():
    result = detection.run(scale=0.5)
    print(result.render())
    bad = [row.workload for row in result.rows if not row.ok]
    if bad:
        fail(f"detection table mismatches: {', '.join(bad)}")
    print(f"detection_smoke: detection table ok ({len(result.rows)} rows)")


def check_replay_equivalence(tmp):
    for name, scale in REPLAY_SCALES.items():
        cls = get_workload(name)
        machine = (MachineConfig(**cls.machine_defaults)
                   if cls.machine_defaults else None)
        recorder, meta = record_workload(cls(scale=scale),
                                         machine_config=machine)
        path = f"{tmp}/{name}.trace.gz"
        save_trace(recorder.records, path, meta=meta)
        outcome = replay_outcome(load_trace(path), load_trace_meta(path))
        md = outcome.result.metadata
        if md["verdict"] != meta["live_verdict"]:
            fail(f"{name}: replay verdict {md['verdict']!r} != "
                 f"live {meta['live_verdict']!r}")
        print(f"detection_smoke: {name}: replay == live "
              f"({md['verdict']}, {md['trace_records']:,} records)")


def main():
    check_detection_table()
    with tempfile.TemporaryDirectory(prefix="repro-detect-") as tmp:
        check_replay_equivalence(tmp)
    print("detection_smoke: PASS")


if __name__ == "__main__":
    main()
