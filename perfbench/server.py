"""The serve-closed workload's server process.

Builds the scenario server the way ``python -m repro serve --socket``
builds it (2 workers, the default queue and batch size, the in-memory
result cache, the live telemetry plane on) and serves JSONL on a
UNIX-domain socket until a client sends ``{"op": "shutdown"}``.  On
exit it writes a JSON report: peak RSS, import time, CPU seconds spent
while serving and, with ``--trace 1``, every job event the server
emitted (through ``ScenarioServer.add_listener``) and the duration of
each commit (``scheduler.on_terminal``).

Run from the directory that should hold the socket, e.g.::

    PYTHONPATH=src python3 perfbench/server.py --socket s --report r.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import threading
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--socket", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.perf_counter()
    from repro.config import LiveObsOptions
    from repro.serve import ScenarioServer
    from repro.serve.jsonl import serve_socket

    import_s = time.perf_counter() - t0

    server = ScenarioServer(
        workers=2,
        queue_capacity=64,
        max_batch=4,
        base_seed=0,
        cache_dir=None,
        use_cache=True,
        live_obs=LiveObsOptions(
            enabled=True, snapshot_path=None, snapshot_interval_s=5.0,
            flight_dump_path=None,
        ),
        start=False,
    )
    events: list[tuple[int, str, float]] = []
    commits_s: list[float] = []
    if args.trace:
        server.add_listener(
            lambda job, kind, t, attrs: events.append((job.seq, kind, t))
        )
        on_terminal = server.scheduler.on_terminal
        lock = threading.Lock()

        def timed_terminal(job) -> None:
            c0 = time.perf_counter()
            try:
                on_terminal(job)
            finally:
                dt = time.perf_counter() - c0
                with lock:
                    commits_s.append(dt)

        server.scheduler.on_terminal = timed_terminal
    server.start()

    cpu0 = time.process_time()
    try:
        serve_socket(server, args.socket)
    finally:
        cpu_s = time.process_time() - cpu0
        server.shutdown()
    batch = server.metrics.histogram("serve.batch_size")
    report = {
        "import_s": import_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "batch_size_mean": batch.mean,
        "events": events,
        "commits_s": commits_s,
    }
    tmp = Path(f"{args.report}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, args.report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
