"""Tests for self-describing (v2) traces and full replay:
record → save/load (plain + gz) → replay through machine + detector →
same verdict as the live run."""

import pytest

from repro.errors import ConfigError
from repro.sim.params import MachineConfig
from repro.trace import (
    load_trace,
    load_trace_meta,
    record_workload,
    replay_outcome,
    save_trace,
    trace_meta,
    workload_verdict,
)
from repro.trace.storage import HEADER_V1, HEADER_V2, TraceFormatError
from repro.workloads import CONCURRENT_NAMES, get_workload

#: One workload per new family, at the fastest scale where the live
#: (sampled) verdict is stable.
FAMILY_SCALES = {
    "producer_consumer_ring": 0.4,
    "work_stealing_deque": 0.4,
    "cas_retry_queue": 0.4,
    "seqlock_read_mostly": 0.75,
    "numa_ping_pong": 0.3,
}


def record(name, scale=None):
    cls = get_workload(name)
    machine = (MachineConfig(**cls.machine_defaults)
               if cls.machine_defaults else None)
    workload = cls(scale=scale if scale is not None
                   else FAMILY_SCALES[name])
    return record_workload(workload, machine_config=machine)


class TestMetaStorage:
    def test_v1_written_without_meta(self, tmp_path):
        recorder, _ = record("producer_consumer_ring", scale=0.2)
        path = tmp_path / "run.trace"
        save_trace(recorder.records, path)
        assert path.read_text().splitlines()[0] == HEADER_V1
        assert list(load_trace(path)) == recorder.records
        assert load_trace_meta(path) is None

    @pytest.mark.parametrize("suffix", [".trace", ".trace.gz"])
    def test_v2_meta_round_trips(self, tmp_path, suffix):
        recorder, meta = record("producer_consumer_ring", scale=0.2)
        path = tmp_path / ("run" + suffix)
        written = save_trace(recorder.records, path, meta=meta)
        assert written == len(recorder.records)
        assert list(load_trace(path)) == recorder.records
        assert load_trace_meta(path) == meta

    def test_v2_header_written_with_meta(self, tmp_path):
        recorder, meta = record("cas_retry_queue", scale=0.2)
        path = tmp_path / "run.trace"
        save_trace(recorder.records, path, meta=meta)
        assert path.read_text().splitlines()[0] == HEADER_V2

    def test_meta_carries_replay_inputs(self):
        recorder, meta = record("numa_ping_pong", scale=0.2)
        assert meta["workload"]["name"] == "numa_ping_pong"
        assert meta["machine"]["numa_nodes"] == 2
        assert meta["allocations"]
        assert meta["live_verdict"] in (
            "false sharing", "true sharing", "no sharing")

    def test_malformed_meta_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(HEADER_V2 + "\n#meta {broken\n")
        with pytest.raises(TraceFormatError, match="malformed meta"):
            load_trace_meta(path)

    def test_non_object_meta_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(HEADER_V2 + "\n#meta [1, 2]\n")
        with pytest.raises(TraceFormatError, match="JSON object"):
            load_trace_meta(path)

    def test_v1_reader_skips_meta_line(self, tmp_path):
        # A v2 file is a valid record stream for any #-skipping reader.
        recorder, meta = record("work_stealing_deque", scale=0.2)
        path = tmp_path / "run.trace"
        save_trace(recorder.records, path, meta=meta)
        assert len(list(load_trace(path))) == len(recorder.records)


class TestReplayOutcome:
    @pytest.mark.parametrize("name", CONCURRENT_NAMES)
    def test_replay_verdict_equals_live_run(self, tmp_path, name):
        recorder, meta = record(name)
        path = tmp_path / f"{name}.trace.gz"
        save_trace(recorder.records, path, meta=meta)
        outcome = replay_outcome(load_trace(path), load_trace_meta(path))
        md = outcome.result.metadata
        assert md["replay"] is True
        assert md["verdict"] == meta["live_verdict"]
        assert md["trace_records"] == len(recorder.records)
        assert md["machine_invalidations"] > 0

    def test_replay_attributes_to_recorded_objects(self):
        recorder, meta = record("producer_consumer_ring")
        md = replay_outcome(recorder.records, meta).result.metadata
        labels = [o["label"] for o in md["objects"]]
        assert any("pc_cursors" in label for label in labels)

    def test_replay_without_meta_still_classifies(self):
        recorder, meta = record("producer_consumer_ring")
        md = replay_outcome(recorder.records).result.metadata
        assert md["verdict"] == "false sharing"

    def test_downsampled_replay(self):
        recorder, meta = record("producer_consumer_ring")
        md = replay_outcome(recorder.records, meta,
                            period=8).result.metadata
        assert md["replayed_samples"] < md["trace_records"]
        assert md["verdict"] == "false sharing"

    def test_invalid_period_rejected(self):
        with pytest.raises(ConfigError):
            replay_outcome([], period=0)

    def test_fresh_replay_is_not_cached(self):
        recorder, meta = record("producer_consumer_ring", scale=0.2)
        assert replay_outcome(recorder.records, meta).from_cache is False

    def test_outcome_survives_store_round_trip(self, tmp_path):
        from repro.run import RunOutcome
        from repro.service import ResultStore
        from repro.service.spec import content_key
        recorder, meta = record("cas_retry_queue")
        outcome = replay_outcome(recorder.records, meta)
        store = ResultStore(tmp_path / "cache")
        key = content_key({"kind": "replay-test"})
        store.put(key, outcome)
        cached = store.get(key)
        assert isinstance(cached, RunOutcome)
        assert (cached.result.metadata["verdict"]
                == outcome.result.metadata["verdict"])

    def test_workload_verdict_collapse(self):
        recorder, meta = record("seqlock_read_mostly")
        assert meta["live_verdict"] == "true sharing"

    def test_trace_meta_without_report_has_no_live_verdict(self):
        from repro.run import run_workload
        from repro.trace import TraceRecorder
        cls = get_workload("cas_retry_queue")
        recorder = TraceRecorder()
        out = run_workload(cls(scale=0.2), observer=recorder)
        meta = trace_meta(cls(scale=0.2), out)
        assert "live_verdict" not in meta
