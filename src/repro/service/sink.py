"""Findings sink: append-only columnar store with cross-run aggregation.

The result store (:mod:`repro.service.store`) answers "what was the
outcome of *this exact spec*?" — one blob per content key. A fleet
deployment asks different questions: *across every run we have served,
which cache lines draw the most invalidations? How do verdicts break
down per workload? What overhead are profiled runs paying?* Answering
those from per-run blobs means re-parsing every payload per query.

:class:`FindingsSink` stores the queryable slice of each outcome in
columnar form instead. Rows are flushed in immutable *segments*::

    <root>/segments/seg-00000042/
        job_id.jsonl      ─┐
        workload.jsonl     │ one JSON value per line; line i of every
        line.jsonl         │ column is row i of the segment
        ...               ─┘
        MANIFEST.json     (written last: row count + column list)

The manifest is committed atomically (tmp + ``os.replace``) *after*
every column file is on disk, so a crash mid-flush leaves an orphan
directory that readers skip — never a torn segment. Within a segment
all column files are row-aligned by construction; the manifest's row
count is validated against each column on load.

Three row kinds share one schema (absent fields are ``null``):

- ``"run"`` — one row per recorded outcome: runtime, ground-truth
  invalidations, and PMU overhead for profiled runs (read from the
  outcome's ``pmu_overhead_cycles`` metadata, so cached outcomes carry
  it too);
- ``"finding"`` — one row per incremental windowed-detector finding
  (replayed identically from cache thanks to outcome schema v2);
- ``"instance"`` — one row per reported sharing instance, carrying the
  verdict (``false_sharing`` / ``true_sharing``) and predicted
  improvement.

Everything is stdlib-only and thread-safe; the serve daemon's workers
append concurrently and flush on graceful shutdown.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ServiceError

__all__ = ["COLUMNS", "FindingsSink"]

#: Every column of the sink schema, in file order. A row is one value
#: per column; absent fields are ``None``.
COLUMNS: Tuple[str, ...] = (
    "job_id", "key", "tenant", "workload", "kind", "line", "timestamp",
    "hits", "writes", "invalidations", "runtime", "verdict",
    "overhead_cycles", "improvement",
)

_MANIFEST = "MANIFEST.json"
_SEGMENT_PREFIX = "seg-"


class FindingsSink:
    """Append-only columnar store for run findings under ``root``.

    Args:
        root: sink directory (created on first flush; existing sealed
            segments are indexed immediately).
        segment_rows: auto-flush threshold — a full buffer seals into a
            segment without waiting for an explicit :meth:`flush`.
    """

    def __init__(self, root, segment_rows: int = 4096):
        if segment_rows < 1:
            raise ServiceError(
                f"segment_rows must be >= 1, got {segment_rows}")
        self.root = Path(root)
        self.segment_rows = int(segment_rows)
        self._lock = threading.Lock()
        self._buffer: List[Dict[str, Any]] = []
        #: Sealed rows, loaded once and extended on each flush: queries
        #: scan this in-memory table (segments are the durable form).
        self._rows: List[Dict[str, Any]] = []
        self._segments: List[str] = []
        self._load()

    # -- persistence ---------------------------------------------------------

    def _segments_dir(self) -> Path:
        return self.root / "segments"

    def _load(self) -> None:
        segments_dir = self._segments_dir()
        if not segments_dir.is_dir():
            return
        for name in sorted(os.listdir(segments_dir)):
            if not name.startswith(_SEGMENT_PREFIX):
                continue
            segment = segments_dir / name
            manifest_path = segment / _MANIFEST
            if not manifest_path.is_file():
                continue  # torn flush: column files without a manifest
            try:
                manifest = json.loads(manifest_path.read_text())
                rows = self._read_segment(segment, manifest)
            except (OSError, ValueError, KeyError, ServiceError) as exc:
                raise ServiceError(
                    f"corrupt sink segment {segment}: {exc}") from exc
            self._rows.extend(rows)
            self._segments.append(name)

    def _read_segment(self, segment: Path,
                      manifest: Dict[str, Any]) -> List[Dict[str, Any]]:
        count = int(manifest["rows"])
        columns = list(manifest["columns"])
        table: Dict[str, List[Any]] = {}
        for column in columns:
            lines = (segment / f"{column}.jsonl").read_text().splitlines()
            if len(lines) != count:
                raise ServiceError(
                    f"column {column!r} has {len(lines)} rows, "
                    f"manifest says {count}")
            table[column] = [json.loads(line) for line in lines]
        return [{column: table[column][i] for column in columns}
                for i in range(count)]

    def flush(self) -> Optional[str]:
        """Seal buffered rows into a new segment; returns its name.

        No-op (returns ``None``) with an empty buffer. Crash-safe: the
        manifest is the commit point and is replaced into place only
        after every column file is written and fsynced.
        """
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> Optional[str]:
        if not self._buffer:
            return None
        rows, self._buffer = self._buffer, []
        name = f"{_SEGMENT_PREFIX}{len(self._segments):08d}"
        segment = self._segments_dir() / name
        segment.mkdir(parents=True, exist_ok=True)
        for column in COLUMNS:
            path = segment / f"{column}.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(json.dumps(row.get(column), sort_keys=True))
                    fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
        manifest = {"rows": len(rows), "columns": list(COLUMNS)}
        tmp = segment / f"{_MANIFEST}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, segment / _MANIFEST)
        self._rows.extend(rows)
        self._segments.append(name)
        return name

    # -- appending -----------------------------------------------------------

    def append(self, row: Dict[str, Any]) -> None:
        """Buffer one row (unknown keys rejected, missing keys null)."""
        unknown = sorted(set(row) - set(COLUMNS))
        if unknown:
            raise ServiceError(
                f"unknown sink column(s): {', '.join(unknown)} "
                f"(known: {', '.join(COLUMNS)})")
        full = {column: row.get(column) for column in COLUMNS}
        with self._lock:
            self._buffer.append(full)
            if len(self._buffer) >= self.segment_rows:
                self._flush_locked()

    def record_outcome(self, outcome: Any, *, job_id: str, key: str,
                       workload: str,
                       tenant: Optional[str] = None) -> int:
        """Decompose one :class:`~repro.run.RunOutcome` into sink rows.

        Emits the ``run`` row, one ``finding`` row per streaming
        finding (identical for cold and cached executions — findings
        are serialized in outcome schema v2), and one ``instance`` row
        per reported sharing instance. Returns the number of rows
        appended.
        """
        base = {"job_id": job_id, "key": key, "tenant": tenant,
                "workload": workload}
        count = 0
        self.append(dict(base, kind="run", runtime=outcome.runtime,
                         invalidations=outcome.invalidations,
                         overhead_cycles=outcome.result.metadata.get(
                             "pmu_overhead_cycles")))
        count += 1
        for finding in outcome.streaming_findings:
            self.append(dict(
                base, kind="finding", line=finding.get("line"),
                timestamp=finding.get("timestamp"),
                hits=finding.get("hits"), writes=finding.get("writes")))
            count += 1
        report = outcome.report
        for instance in (report.all_instances if report is not None else ()):
            profile = instance.profile
            lines = sorted(profile.lines)
            self.append(dict(
                base, kind="instance",
                line=lines[0] if lines else None,
                hits=profile.accesses, writes=profile.writes,
                invalidations=profile.invalidations,
                verdict=instance.kind.value,
                improvement=instance.assessment.improvement))
            count += 1
        return count

    # -- queries -------------------------------------------------------------

    def _visible(self) -> List[Dict[str, Any]]:
        with self._lock:
            return self._rows + self._buffer

    def query(self, *, workload: Optional[str] = None,
              tenant: Optional[str] = None, kind: Optional[str] = None,
              limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Rows matching every given filter, oldest first.

        Buffered (not yet flushed) rows are visible — queries see every
        append, durability only lags until the next flush.
        """
        rows = self._visible()
        out = [dict(row) for row in rows
               if (workload is None or row["workload"] == workload)
               and (tenant is None or row["tenant"] == tenant)
               and (kind is None or row["kind"] == kind)]
        return out[:limit] if limit is not None else out

    def top_lines(self, *, workload: Optional[str] = None,
                  n: int = 10) -> List[Dict[str, Any]]:
        """Cache lines ranked by total sampled invalidations.

        Aggregates ``instance`` rows across runs; ties break toward the
        lower line number for determinism.
        """
        totals: Dict[int, Dict[str, int]] = {}
        for row in self.query(workload=workload, kind="instance"):
            line = row["line"]
            if line is None:
                continue
            entry = totals.setdefault(
                line, {"invalidations": 0, "hits": 0, "writes": 0, "runs": 0})
            entry["invalidations"] += row["invalidations"] or 0
            entry["hits"] += row["hits"] or 0
            entry["writes"] += row["writes"] or 0
            entry["runs"] += 1
        ranked = sorted(totals.items(),
                        key=lambda item: (-item[1]["invalidations"], item[0]))
        return [dict(line=line, **stats) for line, stats in ranked[:n]]

    def verdict_counts(self, *, workload: Optional[str] = None
                       ) -> Dict[str, Dict[str, int]]:
        """Per-workload verdict histogram over ``instance`` rows."""
        out: Dict[str, Dict[str, int]] = {}
        for row in self.query(workload=workload, kind="instance"):
            per = out.setdefault(row["workload"], {})
            verdict = row["verdict"] or "unknown"
            per[verdict] = per.get(verdict, 0) + 1
        return out

    def overhead_percentiles(
            self, percentiles: Sequence[float] = (50.0, 90.0, 99.0),
            *, workload: Optional[str] = None) -> Dict[str, Optional[float]]:
        """Percentiles of PMU overhead cycles over profiled ``run`` rows.

        Rows without an overhead figure (native runs, payloads cached
        before outcomes recorded ``pmu_overhead_cycles``) are skipped;
        all-null data yields null percentiles.
        """
        values = sorted(row["overhead_cycles"]
                        for row in self.query(workload=workload, kind="run")
                        if row["overhead_cycles"] is not None)
        out: Dict[str, Optional[float]] = {}
        for pct in percentiles:
            out[f"p{pct:g}"] = _percentile(values, pct)
        return out

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            kinds: Dict[str, int] = {}
            for row in self._rows:
                kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
            for row in self._buffer:
                kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
            return {
                "rows": len(self._rows) + len(self._buffer),
                "sealed_rows": len(self._rows),
                "buffered_rows": len(self._buffer),
                "segments": len(self._segments),
                "kinds": kinds,
            }


def _percentile(values: List[float], pct: float) -> Optional[float]:
    """Linear-interpolation percentile (the numpy default), stdlib-only."""
    if not values:
        return None
    if len(values) == 1:
        return float(values[0])
    rank = (pct / 100.0) * (len(values) - 1)
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    frac = rank - low
    return values[low] * (1.0 - frac) + values[high] * frac
