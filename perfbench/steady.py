#!/usr/bin/env python3
"""Steadiness mode: is each end-to-end metric steady within its bound?

Runs every workload (or those named) ``--runs`` times, each run in a
fresh process with its own seed (1 to ``--runs``), and reports for each
end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share
of the median, next to the metric's bound in ``BENCHMARK.json``.  A spread above a third of the bound is flagged
``WIDE``, above the bound ``FAIL``.  It also checks that the share of
failed operations is the same in every run, and — from two traced runs
of seed 1 — that every count metric repeats exactly.  Each run measures
for ``run_seconds`` of ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload adaptive-replay

Exits 1 when a spread exceeds its bound, a failed share differs or a
count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: per-layer units whose values are exact counts
COUNT_UNITS = ("count", "bytes")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    doc = json.loads(lines[-1])
    if not doc["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    return doc


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    counted = {m["name"] for m in bench["per_layer"]
               if m["unit"] in COUNT_UNITS}
    bad = False
    for workload in args.workload or names:
        runs = []
        for i in range(args.runs):
            doc = run_once(workload, i + 1, seconds, 0)
            runs.append(doc)
            print(f"{workload} seed {i + 1}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bound:
                flag, bad = "FAIL", True
            elif spread > bound / 3:
                flag = "WIDE"
            print(f"  {name:<12} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>8.2%} {bound:>6.0%} {flag}")
        shares = {(r["failed"], r["attempted"]) for r in runs}
        ratios = {f / a for f, a in shares}
        print(f"  failed/attempted: {sorted(shares)}")
        if len(ratios) != 1:
            print("  FAIL: the failed share differs between runs")
            bad = True
        a = run_once(workload, 1, seconds, 1)
        b = run_once(workload, 1, seconds, 1)
        diff = sorted(
            n for n in counted
            if a["metrics"][n]["value"] != b["metrics"][n]["value"])
        print(f"  counts repeat: {'yes' if not diff else 'NO ' + str(diff)}"
              f"; tracing overhead "
              f"{a['metrics']['trace.overhead_pct']['value']:.1f} % / "
              f"{b['metrics']['trace.overhead_pct']['value']:.1f} %")
        bad |= bool(diff)
        print(flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
