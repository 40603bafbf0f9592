"""Correctness checks run after each workload's timed phase.

Each check recomputes what it can apart from the program (a sum over the
trace's patches, a coverage mask built with numpy, a scenario run
in-process) or tests a property the method must have.  None compares
against a stored copy of earlier output.  Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Iterable

import numpy as np

#: relative tolerance of the work-conservation sums (today's error ~1e-14)
WORK_RTOL = 1e-9


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


# -- replays -------------------------------------------------------------------


def coarse_steps(trace) -> list[int]:
    """Coarse steps each snapshot's interval covers (last one to the end)."""
    steps = [s.step for s in trace]
    total = trace.meta["num_coarse_steps"]
    return [b - a for a, b in zip(steps, steps[1:] + [total])]


def trace_work(trace) -> float:
    """Σ over patches of cells × load_per_cell × cumulative ratio × steps.

    Built from the patch boxes and level ratios alone, not from the
    program's own load accounting.
    """
    total = 0.0
    for snap, steps in zip(trace, coarse_steps(trace)):
        ratio = 1
        for level in snap.hierarchy.levels:
            ratio *= level.ratio
            for patch in level.patches:
                lo, hi = patch.box.lo, patch.box.hi
                cells = (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])
                total += cells * patch.load_per_cell * ratio * steps
    return total


def replay_checks(
    trace, report, policy_choice: Callable[[str], str]
) -> list[str]:
    """Checks on an ``AdaptiveRunReport`` of ``trace``.

    ``policy_choice(octant)`` names the partitioner the policy base
    recommends for an octant.
    """
    problems: list[str] = []
    expected = trace_work(trace)
    runs = {"adaptive": report.adaptive, **report.static}
    for name, run in runs.items():
        proc = float(np.sum(run.proc_work))
        if not _close(proc, run.useful_work, WORK_RTOL):
            problems.append(
                f"{name}: proc_work sums to {proc!r}, useful_work is "
                f"{run.useful_work!r}"
            )
        if not _close(run.useful_work, expected, WORK_RTOL):
            problems.append(
                f"{name}: useful_work {run.useful_work!r} != independent "
                f"patch sum {expected!r}"
            )
        parts = 0.0
        for r in run.records:
            parts += (r.compute_time + r.comm_time + r.regrid_time
                      + r.checkpoint_time + r.recovery_time)
        if not _close(parts, run.total_runtime, 1e-12):
            problems.append(
                f"{name}: total_runtime {run.total_runtime!r} != sum of "
                f"record components {parts!r}"
            )
    if report.static:
        worst = max(r.total_runtime for r in report.static.values())
        adaptive = report.adaptive.total_runtime
        pct = 100.0 * (worst - adaptive) / worst
        if not _close(pct, report.improvement_over_worst_pct, 1e-9):
            problems.append(
                f"improvement_over_worst_pct {report.improvement_over_worst_pct!r}"
                f" != {pct!r} recomputed from the runtimes"
            )
        if not adaptive < worst:
            problems.append(
                f"adaptive runtime {adaptive!r} is not below the slowest "
                f"static baseline {worst!r}"
            )
    for rec in report.adaptive.records:
        want = policy_choice(rec.octant)
        if rec.label != want:
            problems.append(
                f"step {rec.step}: octant {rec.octant} ran {rec.label}, "
                f"the policy base recommends {want}"
            )
    return problems


def same_report(a, b) -> list[str]:
    """Two replays of one input give identical simulated runtimes."""
    problems: list[str] = []
    runs_a = {"adaptive": a.adaptive, **a.static}
    runs_b = {"adaptive": b.adaptive, **b.static}
    for name, run in runs_a.items():
        if run.total_runtime != runs_b[name].total_runtime:
            problems.append(
                f"{name}: runtime {run.total_runtime!r} differs between "
                f"rounds ({runs_b[name].total_runtime!r})"
            )
    return problems


# -- trace generation ----------------------------------------------------------


def _boxes(level) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([p.box.lo for p in level.patches], dtype=np.int64)
    hi = np.array([p.box.hi for p in level.patches], dtype=np.int64)
    return lo.reshape(-1, 3), hi.reshape(-1, 3)


def _overlapping_pairs(lo: np.ndarray, hi: np.ndarray) -> int:
    over = np.ones((len(lo), len(lo)), dtype=bool)
    for ax in range(3):
        over &= (lo[:, None, ax] < hi[None, :, ax]) & (
            lo[None, :, ax] < hi[:, None, ax])
    np.fill_diagonal(over, False)
    return int(over.sum()) // 2


def regrid_checks(
    trace,
    error_field: Callable[[int], np.ndarray],
    load_field: Callable[[int], np.ndarray],
    thresholds: Iterable[float],
    regrid_interval: int,
) -> list[str]:
    """Checks on a generated trace against the fields it was built from.

    - snapshot steps start at 0 and advance by ``regrid_interval``;
    - patches within a level are disjoint;
    - each refined level lies inside its parent's footprint;
    - every base cell whose error exceeds the level's threshold inside
      the parent footprint is covered by a patch of that level;
    - each patch's ``load_per_cell`` is the mean load over its footprint
      (base patches included).
    """
    problems: list[str] = []
    thresholds = tuple(thresholds)
    steps = [s.step for s in trace]
    want = list(range(0, regrid_interval * len(steps), regrid_interval))
    if steps != want:
        problems.append(f"snapshot steps {steps[:5]}... do not advance by "
                        f"{regrid_interval} from 0")
    for snap in trace:
        h = snap.hierarchy
        err = np.asarray(error_field(snap.step), dtype=float)
        load = np.asarray(load_field(snap.step), dtype=float)
        where = f"step {snap.step}"
        for p in h.levels[0].patches:
            mean = float(load[p.box.slices(h.domain.lo)].mean())
            if not _close(p.load_per_cell, mean, 1e-12):
                problems.append(
                    f"{where}: base patch {p.patch_id} load_per_cell "
                    f"{p.load_per_cell!r} != footprint mean {mean!r}")
        parent = np.ones(err.shape, dtype=bool)
        ratio = 1
        for li, tau in enumerate(thresholds, start=1):
            flags = err > tau
            if li >= len(h.levels):
                if (flags & parent).any():
                    problems.append(
                        f"{where}: cells above threshold {tau} inside the "
                        f"level-{li - 1} footprint but no level {li}")
                break
            level = h.levels[li]
            ratio *= level.ratio
            lo, hi = _boxes(level)
            if (lo % ratio).any() or (hi % ratio).any():
                problems.append(f"{where}: level {li} boxes not aligned to "
                                f"the base grid")
                break
            n_over = _overlapping_pairs(lo, hi)
            if n_over:
                problems.append(f"{where}: {n_over} overlapping patch pairs "
                                f"on level {li}")
            blo, bhi = lo // ratio, hi // ratio
            child = np.zeros(err.shape, dtype=bool)
            for p, a, b in zip(level.patches, blo, bhi):
                sl = (slice(a[0], b[0]), slice(a[1], b[1]), slice(a[2], b[2]))
                child[sl] = True
                mean = float(load[sl].mean())
                if not _close(p.load_per_cell, mean, 1e-12):
                    problems.append(
                        f"{where}: patch {p.patch_id} load_per_cell "
                        f"{p.load_per_cell!r} != footprint mean {mean!r}")
            if (child & ~parent).any():
                problems.append(f"{where}: level {li} leaves its parent's "
                                f"footprint")
            uncovered = int((flags & parent & ~child).sum())
            if uncovered:
                problems.append(f"{where}: {uncovered} cells above threshold "
                                f"{tau} not covered by level {li}")
            parent = child
    return problems


def same_trace(a, b) -> list[str]:
    """``b`` (e.g. a save→load round trip) equals ``a`` snapshot by snapshot."""
    if a.meta != b.meta:
        return ["trace metadata differs"]
    if len(a) != len(b):
        return [f"{len(b)} snapshots, expected {len(a)}"]
    for sa, sb in zip(a, b):
        if sa.to_dict() != sb.to_dict():
            return [f"snapshot at step {sa.step} differs"]
    return []


# -- served path ---------------------------------------------------------------


def serve_checks(
    requests: list[dict[str, Any]],
    counters: dict[str, int],
    expected: Callable[[str, dict], Any],
) -> list[str]:
    """Checks on a closed-loop run's answers and the server's counters.

    ``requests`` holds one dict per request with ``scenario``,
    ``params``, ``status`` and ``result``; ``expected(scenario, params)``
    is the result of running the same request in-process.
    """
    problems: list[str] = []
    distinct: dict[tuple[str, str], Any] = {}
    for req in requests:
        key = (req["scenario"], _canonical(req["params"]))
        if req["status"] != "done":
            problems.append(f"{key}: ended {req['status']}, not done")
            continue
        if key not in distinct:
            distinct[key] = expected(req["scenario"], req["params"])
        if req["result"] != distinct[key]:
            problems.append(f"{key}: served result differs from the "
                            f"in-process run")
    if counters.get("shed", 0):
        problems.append(f"{counters['shed']} requests shed")
    n = len(requests)
    n_distinct = len({(r["scenario"], _canonical(r["params"]))
                      for r in requests})
    if counters.get("executions", 0) != n_distinct:
        problems.append(f"{counters.get('executions', 0)} executions for "
                        f"{n_distinct} distinct requests")
    reused = counters.get("cache_hits", 0) + counters.get("dedup_hits", 0)
    if reused != n - n_distinct:
        problems.append(f"{reused} cache+dedup hits for {n - n_distinct} "
                        f"repeated requests")
    return problems


def _canonical(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))
