"""Service bench: cold vs. warm experiment wall-clock.

Measures the tentpole claim directly — the second identical
``repro experiment`` is served from the result store and must be at
least an order of magnitude faster than the first — and records the
numbers in ``BENCH_service.json`` at the repo root so successive PRs
can track the cache's effectiveness.

Each scenario runs twice against a *fresh* store: the cold pass
simulates and populates, the warm pass replays. Both passes must render
byte-identical output (asserted here, not just in tests), and the warm
pass's lookups must be served ≥90% from cache.

Run it with ``repro bench --service``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ServiceError
from repro.service import RunService, using_service

BENCH_FILE = "BENCH_service.json"

#: Experiment scenarios exercised against a fresh store.
SCENARIOS = (
    ("table1(scale=0.2)", "table1",
     dict(scale=0.2, thread_counts=(4, 2), seeds=(11, 22))),
    ("scaling(scale=0.2)", "scaling",
     dict(scale=0.2, thread_counts=(2, 4, 8))),
)


def _run_scenario(name: str, kwargs: Dict[str, object]) -> str:
    from repro.experiments import scaling, table1
    module = {"table1": table1, "scaling": scaling}[name]
    return module.run(**kwargs).render()


def bench_scenario(label: str, name: str, kwargs: Dict[str, object],
                   cache_dir: Path) -> Dict[str, object]:
    service = RunService(cache_dir=cache_dir)
    with using_service(service):
        start = time.perf_counter()
        cold_text = _run_scenario(name, kwargs)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        warm_text = _run_scenario(name, kwargs)
        warm = time.perf_counter() - start
    if warm_text != cold_text:
        raise ServiceError(
            f"{label}: warm-cache output diverged from cold output")
    stats = service.stats()
    return {
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "speedup": round(cold / warm, 1) if warm else float("inf"),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_ratio": round(service.hit_ratio(), 4),
        "entries": stats["entries"],
        "identical_output": True,
    }


def run_bench() -> Dict[str, object]:
    """Run every scenario against a throwaway store; returns the entry."""
    scenarios = {}
    for label, name, kwargs in SCENARIOS:
        cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
        try:
            scenarios[label] = bench_scenario(label, name, kwargs, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "scenarios": scenarios,
    }


def load_entries(path: Path) -> List[Dict[str, object]]:
    if not path.exists():
        return []
    return json.loads(path.read_text())["entries"]


def save_entries(path: Path, entries: List[Dict[str, object]]) -> None:
    path.write_text(json.dumps({"entries": entries}, indent=1) + "\n")


def render_entry(entry: Dict[str, object]) -> str:
    lines = []
    for label, s in entry["scenarios"].items():
        lines.append(
            f"{label:<22} cold {s['cold_seconds']:>8.3f}s  "
            f"warm {s['warm_seconds']:>8.4f}s  "
            f"{s['speedup']:>7.1f}x  hit-ratio {s['hit_ratio']:.0%}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-service",
        description="Run-service cold/warm bench; records "
                    f"{BENCH_FILE} at the repo root.")
    parser.add_argument("--label", default="current",
                        help="label stored with this entry")
    parser.add_argument("--no-update", action="store_true",
                        help="measure and compare without rewriting "
                             f"{BENCH_FILE}")
    parser.add_argument("--path", type=Path, default=None,
                        help=f"override the {BENCH_FILE} location")
    args = parser.parse_args(argv)

    path = args.path or Path(__file__).resolve().parents[3] / BENCH_FILE
    entries = load_entries(path)
    entry = run_bench()
    entry["label"] = args.label
    print(render_entry(entry))
    worst = min(s["speedup"] for s in entry["scenarios"].values())
    print(f"worst warm speedup: {worst:.1f}x (target: >=10x)")
    if not args.no_update:
        save_entries(path, entries + [entry])
        print(f"recorded entry '{args.label}' -> {path}")
    return 0 if worst >= 10.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
