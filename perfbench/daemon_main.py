"""Launcher for the ``serve`` workload's daemon, run as its own process.

Builds the daemon through the public ``ServeConfig``/``Daemon`` API on
an ephemeral port, prints ``{"port": N}``, serves until its standard
input closes, then shuts the daemon down (draining jobs and flushing
the sink) and prints ``{"peak_rss_mb": ...}``. With ``--trace-out`` it
installs the layer wrappers first and writes the tracer snapshot there
after shutdown.

Usage: python3 -m perfbench.daemon_main --cache-dir D --sink-dir D
       [--workers 2] [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--sink-dir", required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        from perfbench import layers
        from perfbench.tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
    from repro.service.daemon import Daemon, ServeConfig

    daemon = Daemon(ServeConfig(host="127.0.0.1", port=0,
                                workers=args.workers,
                                cache_dir=args.cache_dir,
                                sink_dir=args.sink_dir)).start()
    print(json.dumps({"port": daemon.port}), flush=True)
    try:
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        daemon.shutdown()
        if tracer is not None:
            snap = tracer.snapshot()
            tracer.uninstall()
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(snap, handle)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
