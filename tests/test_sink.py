"""FindingsSink: columnar segments, crash safety, cross-run queries."""

import json
import threading

import pytest

from repro.errors import ServiceError
from repro.request import RunRequest
from repro.service.sink import COLUMNS, FindingsSink


def _row(i=0, **over):
    row = {"job_id": f"job-{i}", "key": f"k{i}", "tenant": "t",
           "workload": "histogram", "kind": "finding", "line": 100 + i,
           "hits": 10, "writes": 5}
    row.update(over)
    return row


class TestAppendFlush:
    def test_buffered_rows_are_queryable_before_flush(self, tmp_path):
        sink = FindingsSink(tmp_path)
        sink.append(_row())
        assert len(sink.query()) == 1
        assert sink.stats()["buffered_rows"] == 1

    def test_flush_seals_a_segment(self, tmp_path):
        sink = FindingsSink(tmp_path)
        sink.append(_row(0))
        sink.append(_row(1))
        name = sink.flush()
        assert name == "seg-00000000"
        assert sink.flush() is None  # empty buffer: no-op
        segment = tmp_path / "segments" / name
        assert (segment / "MANIFEST.json").is_file()
        for column in COLUMNS:
            assert (segment / f"{column}.jsonl").is_file()

    def test_columns_are_row_aligned(self, tmp_path):
        sink = FindingsSink(tmp_path)
        for i in range(5):
            sink.append(_row(i))
        name = sink.flush()
        segment = tmp_path / "segments" / name
        manifest = json.loads((segment / "MANIFEST.json").read_text())
        assert manifest["rows"] == 5
        for column in COLUMNS:
            lines = (segment / f"{column}.jsonl").read_text().splitlines()
            assert len(lines) == 5
        lines_column = [
            json.loads(line) for line in
            (segment / "line.jsonl").read_text().splitlines()]
        assert lines_column == [100, 101, 102, 103, 104]

    def test_reopen_restores_rows(self, tmp_path):
        sink = FindingsSink(tmp_path)
        for i in range(3):
            sink.append(_row(i))
        sink.flush()
        reopened = FindingsSink(tmp_path)
        assert reopened.stats()["sealed_rows"] == 3
        assert [r["line"] for r in reopened.query()] == [100, 101, 102]

    def test_auto_flush_at_segment_rows(self, tmp_path):
        sink = FindingsSink(tmp_path, segment_rows=2)
        for i in range(5):
            sink.append(_row(i))
        stats = sink.stats()
        assert stats["segments"] == 2
        assert stats["buffered_rows"] == 1

    def test_rotation_produces_ordered_segments(self, tmp_path):
        sink = FindingsSink(tmp_path)
        for i in range(4):
            sink.append(_row(i))
            sink.flush()
        names = sorted(p.name for p in (tmp_path / "segments").iterdir())
        assert names == [f"seg-{i:08d}" for i in range(4)]

    def test_unknown_column_rejected(self, tmp_path):
        sink = FindingsSink(tmp_path)
        with pytest.raises(ServiceError, match="unknown sink column"):
            sink.append({"job_id": "x", "velocity": 3})

    def test_torn_segment_is_skipped(self, tmp_path):
        sink = FindingsSink(tmp_path)
        sink.append(_row())
        sink.flush()
        # simulate a crash mid-flush: column files but no manifest
        torn = tmp_path / "segments" / "seg-00000001"
        torn.mkdir()
        (torn / "job_id.jsonl").write_text('"job-torn"\n')
        reopened = FindingsSink(tmp_path)
        assert reopened.stats()["sealed_rows"] == 1

    def test_misaligned_segment_rejected(self, tmp_path):
        sink = FindingsSink(tmp_path)
        sink.append(_row())
        name = sink.flush()
        bad = tmp_path / "segments" / name / "hits.jsonl"
        bad.write_text("1\n2\n3\n")
        with pytest.raises(ServiceError, match="corrupt sink segment"):
            FindingsSink(tmp_path)

    def test_concurrent_appends(self, tmp_path):
        sink = FindingsSink(tmp_path, segment_rows=16)

        def writer(base):
            for i in range(50):
                sink.append(_row(base * 1000 + i))

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.flush()
        assert FindingsSink(tmp_path).stats()["rows"] == 200


class TestQueries:
    def _populate(self, sink):
        sink.append(_row(0, workload="histogram", kind="instance",
                         invalidations=50, verdict="false sharing",
                         improvement=3.0, line=7))
        sink.append(_row(1, workload="histogram", kind="instance",
                         invalidations=10, verdict="true sharing",
                         improvement=1.0, line=9))
        sink.append(_row(2, workload="linear_regression", kind="instance",
                         invalidations=90, verdict="false sharing",
                         improvement=5.0, line=7))
        sink.append(_row(3, workload="histogram", kind="run", line=None,
                         runtime=1000, overhead_cycles=40))
        sink.append(_row(4, workload="histogram", kind="run", line=None,
                         runtime=1000, overhead_cycles=80, tenant="u"))
        sink.append(_row(5, workload="histogram", kind="run", line=None,
                         runtime=1000, overhead_cycles=None))

    def test_filters(self, tmp_path):
        sink = FindingsSink(tmp_path)
        self._populate(sink)
        assert len(sink.query(workload="histogram")) == 5
        assert len(sink.query(kind="instance")) == 3
        assert len(sink.query(tenant="u")) == 1
        assert len(sink.query(limit=2)) == 2

    def test_top_lines_sums_across_runs(self, tmp_path):
        sink = FindingsSink(tmp_path)
        self._populate(sink)
        top = sink.top_lines(n=2)
        assert top[0]["line"] == 7
        assert top[0]["invalidations"] == 140  # 50 + 90 across workloads
        assert top[0]["runs"] == 2
        assert top[1]["line"] == 9

    def test_verdict_counts_per_workload(self, tmp_path):
        sink = FindingsSink(tmp_path)
        self._populate(sink)
        verdicts = sink.verdict_counts()
        assert verdicts["histogram"] == {"false sharing": 1,
                                         "true sharing": 1}
        assert verdicts["linear_regression"] == {"false sharing": 1}

    def test_overhead_percentiles_skip_nulls(self, tmp_path):
        sink = FindingsSink(tmp_path)
        self._populate(sink)
        out = sink.overhead_percentiles((50.0,))
        assert out["p50"] == pytest.approx(60.0)  # median of 40, 80

    def test_overhead_percentiles_all_null(self, tmp_path):
        sink = FindingsSink(tmp_path)
        sink.append(_row(0, kind="run", overhead_cycles=None))
        assert sink.overhead_percentiles((50.0,)) == {"p50": None}


class TestRecordOutcome:
    def test_windowed_profiled_outcome_rows(self, tmp_path):
        sink = FindingsSink(tmp_path)
        request = RunRequest(workload="linear_regression", threads=4,
                             detector="windowed")
        outcome = request.execute()
        count = sink.record_outcome(outcome, job_id="j1", key="k1",
                                    workload=request.workload, tenant="t1")
        stats = sink.stats()
        assert count == stats["rows"]
        assert stats["kinds"]["run"] == 1
        assert stats["kinds"]["finding"] == len(outcome.streaming_findings)
        assert stats["kinds"]["instance"] >= 1
        run_row = sink.query(kind="run")[0]
        assert run_row["runtime"] == outcome.runtime
        assert run_row["invalidations"] == outcome.invalidations
        assert run_row["overhead_cycles"] > 0  # live PMU rode along

    def test_cached_outcome_rows_match_fresh(self, tmp_path):
        from repro.run import RunOutcome
        request = RunRequest(workload="linear_regression", threads=4,
                             detector="windowed")
        fresh = request.execute()
        cached = RunOutcome.from_dict(fresh.to_dict())
        fresh_sink = FindingsSink(tmp_path / "fresh")
        cached_sink = FindingsSink(tmp_path / "cached")
        fresh_sink.record_outcome(fresh, job_id="j", key="k",
                                  workload=request.workload)
        cached_sink.record_outcome(cached, job_id="j", key="k",
                                   workload=request.workload)
        fresh_rows = fresh_sink.query(kind="finding")
        cached_rows = cached_sink.query(kind="finding")
        assert fresh_rows == cached_rows
        # the overhead rides in the outcome metadata, so it survives
        # serialization: the cached run row equals the fresh one
        fresh_run = fresh_sink.query(kind="run")
        assert fresh_run[0]["overhead_cycles"] > 0
        assert cached_sink.query(kind="run") == fresh_run

    def test_native_outcome_single_run_row(self, tmp_path):
        sink = FindingsSink(tmp_path)
        outcome = RunRequest(workload="histogram", threads=2,
                             scale=0.2).execute()
        count = sink.record_outcome(outcome, job_id="j", key="k",
                                    workload="histogram")
        assert count == 1
        assert sink.stats()["kinds"] == {"run": 1}
