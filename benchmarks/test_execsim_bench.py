"""Execsim benchmark snapshot — emits ``BENCH_execsim.json``.

Times the comm-cost kernel against its frozen scalar oracle on
synthetic adjacency problems and replays the regrid reuse cache over
the reduced RM3D trace plus a scripted localized-adaptation trace
(:mod:`repro.execsim.bench`).  Asserts the acceptance floors — cost
kernel >= 3x at 1e5 adjacency
pairs, nonzero reuse-hit rate on the RM3D trace — and writes the
snapshot the ``python -m repro benchdiff`` CI gate compares.  Wall and
speedup leaves use names the gate ignores; match booleans, hit rates,
and digests are gated exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.execsim.bench import run_execsim_bench

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_PATH = REPO_ROOT / "BENCH_execsim.json"

#: acceptance floor for the cost kernel at the largest pair count
MIN_COST_SPEEDUP = 3.0


def test_execsim_bench_snapshot():
    doc = run_execsim_bench()

    gate = doc["gate"]
    assert gate["all_match"], "kernel diverged from its oracle — differential bug"
    assert gate["largest_pairs"] >= 100_000
    assert gate["cost_speedup_at_largest"] >= MIN_COST_SPEEDUP, (
        f"cost kernel only {gate['cost_speedup_at_largest']:.1f}x "
        f"at {gate['largest_pairs']} pairs"
    )
    assert gate["reuse_hit_rate"] > 0.0, (
        "no reuse hits on the RM3D trace — the incremental path never "
        "engaged"
    )
    # the reduced RM3D trace has exactly one cold interval (the first)
    assert doc["reuse"]["rm3d"]["misses"] == 1
    # the localized trace is the favorable regime: the incremental replay
    # must not be slower than full rebuilds there
    loc = doc["reuse"]["localized"]
    assert loc["wall_incremental_s"] < loc["wall_full_s"], (
        f"incremental replay ({loc['wall_incremental_s']:.3f}s) slower "
        f"than full rebuilds ({loc['wall_full_s']:.3f}s) on the "
        "localized trace"
    )

    SNAPSHOT_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
