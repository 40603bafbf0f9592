"""Kernel microbenchmark snapshot — emits ``BENCH_kernels.json``.

Times every kernel against its frozen scalar oracle under
``tests/reference/`` (:mod:`repro.kernels.bench`) on sized
deterministic inputs, asserts the vectorization pay-off promised when
the kernels were introduced (sequence partitioning >= 3x at 1e5 units),
and writes the machine-readable snapshot the ``python -m repro
benchdiff`` CI gate compares against.  Wall-clock and speedup entries
live under key names the gate's default ignore rules skip; the
``match`` booleans and output digests are gated exactly, so a semantics
drift of a kernel fails CI even if timing noise hides it locally.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.kernels.bench import run_kernels_bench

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_PATH = REPO_ROOT / "BENCH_kernels.json"

#: the acceptance floor for the sequence kernels at the largest size
MIN_SEQUENCE_SPEEDUP = 3.0


def test_kernels_bench_snapshot():
    doc = run_kernels_bench()

    gate = doc["gate"]
    assert gate["all_match"], "kernel diverged from its oracle — differential bug"
    assert gate["largest_n"] >= 100_000
    assert gate["greedy_speedup_at_largest"] >= MIN_SEQUENCE_SPEEDUP, (
        f"greedy kernel only {gate['greedy_speedup_at_largest']:.1f}x "
        f"at n={gate['largest_n']}"
    )
    assert gate["weighted_speedup_at_largest"] >= MIN_SEQUENCE_SPEEDUP, (
        f"weighted kernel only {gate['weighted_speedup_at_largest']:.1f}x "
        f"at n={gate['largest_n']}"
    )

    SNAPSHOT_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
