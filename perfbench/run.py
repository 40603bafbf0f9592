#!/usr/bin/env python3
"""The repository's benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compare-replay --seed 1 \\
        --seconds 12 --trace 0

Workloads: ``compare-replay``, ``adaptive-replay``, ``trace-gen`` and
``serve-closed`` (see ``perfbench/README.md``).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Diagnostics go to standard error.

The benchmark builds nothing; it runs the checkout's ``src`` with the
interpreter that runs this file.  The reference RM3D trace is generated
once into the checkout's ``.cache/`` before the first run that needs it,
outside every timed phase.  Without ``src/repro`` next to this directory
the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import percentiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("compare-replay", "adaptive-replay", "trace-gen",
             "serve-closed")
#: set-up is measured this many times per run; the median is reported
SETUP_SAMPLES = 5
#: no single process may outlive this (the run itself must end in 180 s)
PROCESS_TIMEOUT_S = 150.0


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Session:
    """Child processes of one run; all are stopped when the run ends."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.procs: list[subprocess.Popen] = []

    def spawn(self, argv: list[str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=self.tmp, env=self.env,
            stdout=subprocess.PIPE, text=True,
        )
        self.procs.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()

    # -- python workloads: set-up ends at the worker's ready line ------------

    def worker(self, args, role: str, trace: int) -> tuple[subprocess.Popen, float]:
        t0 = time.monotonic()
        proc = self.spawn([
            str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--role", role, "--tmp", str(self.tmp),
        ])
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {proc.wait()} before "
                               f"it was ready")
        return proc, json.loads(line)["ready_t"] - t0

    # -- serve-closed: set-up ends when the server's socket accepts ----------

    def server(self, name: str, trace: int) -> tuple[subprocess.Popen, float]:
        report = self.tmp / f"{name}.json"
        t0 = time.monotonic()
        proc = self.spawn([str(HERE / "server.py"), "--socket", name,
                           "--report", report.name, "--trace", str(trace)])
        while True:
            if proc.poll() is not None:
                raise RuntimeError(f"server exited with {proc.returncode} "
                                   f"before accepting connections")
            if time.monotonic() - t0 > PROCESS_TIMEOUT_S:
                raise TimeoutError("server never accepted a connection")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(name)
            except OSError:
                time.sleep(0.002)
                continue
            else:
                ready = time.monotonic() - t0
                return proc, ready
            finally:
                probe.close()

    def stop_server(self, proc: subprocess.Popen, name: str) -> None:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(name)
        conn.sendall(b'{"op": "shutdown"}\n')
        conn.recv(4096)
        conn.close()
        proc.wait(PROCESS_TIMEOUT_S)

    def serve_client(self, args, name: str, trace: int) -> dict:
        proc = self.spawn([
            str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--socket", name,
            "--server-report", f"{name}.json",
        ])
        return finish(proc)


def finish(proc: subprocess.Popen) -> dict:
    """The worker's result line, once it exited cleanly."""
    out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def prepare(session: Session, workload: str) -> None:
    """Generate the shared traces the workload loads, once per checkout."""
    needs = {
        "compare-replay": ("rm3d_reference_trace",),
        "adaptive-replay": ("rm3d_reference_trace",),
        "serve-closed": ("rm3d_small_trace",),
    }.get(workload, ())
    for fn in needs:
        if (ROOT / ".cache" / f"{fn}.json.gz").exists():
            continue
        log(f"preparing .cache/{fn}.json.gz (once per checkout) ...")
        proc = session.spawn([
            "-c", f"from repro.experiments.common import {fn}; {fn}()"])
        proc.communicate(timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"preparing {fn} failed")


def run_untraced(session: Session, args) -> dict:
    setups: list[float] = []
    if args.workload == "serve-closed":
        for i in range(SETUP_SAMPLES - 1):
            proc, s = session.server(f"setup{i}", 0)
            setups.append(s)
            session.stop_server(proc, f"setup{i}")
        proc, s = session.server("main", 0)
        setups.append(s)
        res = session.serve_client(args, "main", 0)
        proc.wait(PROCESS_TIMEOUT_S)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            proc, s = session.worker(args, "setup", 0)
            setups.append(s)
            proc.wait(PROCESS_TIMEOUT_S)
        proc, s = session.worker(args, "run", 0)
        setups.append(s)
        res = finish(proc)
    ops = res["ops_ms"]
    p50, p90 = percentiles(ops)
    res["metrics"] = {
        "setup_s": statistics.median(setups),
        "work_s": res["work_s"],
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    log(f"{args.workload}: {res['rounds']} rounds, {len(ops)} operations, "
        f"set-up samples {[round(s, 3) for s in setups]}")
    return res


def run_traced(session: Session, args, names: list[str]) -> dict:
    if args.workload == "serve-closed":
        proc, _ = session.server("plain", 0)
        plain = session.serve_client(args, "plain", 0)
        proc.wait(PROCESS_TIMEOUT_S)
        proc, _ = session.server("traced", 1)
        res = session.serve_client(args, "traced", 1)
        proc.wait(PROCESS_TIMEOUT_S)
        res["untraced_work_s"] = plain["mean_work_s"]
        res["problems"] = plain["problems"] + res["problems"]
    else:
        proc, _ = session.worker(args, "run", 1)
        res = finish(proc)
    metrics = {name: 0 for name in names}
    metrics.update(res["layers"])
    traced, plain_s = res["traced_work_s"], res["untraced_work_s"]
    metrics["trace.work_s"] = traced
    metrics["trace.untraced_work_s"] = plain_s
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain_s) / plain_s
    unknown = set(metrics) - set(names)
    if unknown:
        raise RuntimeError(f"layer metrics missing from BENCHMARK.json: "
                           f"{sorted(unknown)}")
    res["metrics"] = metrics
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program source at {SRC / 'repro'}; nothing to measure")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in bench["end_to_end"] + bench["per_layer"]}
    tmp = ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # socket paths stay short (relative to the run's directory) however
    # deep the checkout lies; children start in the same directory
    os.chdir(tmp)
    session = Session(tmp)
    try:
        prepare(session, args.workload)
        if args.trace:
            res = run_traced(session, args,
                             [m["name"] for m in bench["per_layer"]])
        else:
            res = run_untraced(session, args)
    finally:
        session.stop_all()
        os.chdir(ROOT)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for problem in res["problems"]:
        log(f"CHECK FAILED: {problem}")
    out = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in res["metrics"].items()},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
