"""Execsim benchmarks: the comm-cost kernel pair and cross-interval reuse.

``python -m repro execsim-bench`` produces the ``BENCH_execsim.json``
document gated by ``python -m repro benchdiff`` in CI.  Two halves:

- **cost kernel** — the frozen scalar oracle
  (``tests/reference/ref_costmodel.py``, loaded by file path, so the
  bench runs only from a source checkout) vs the production
  :func:`~repro.execsim.costmodel.comm_cost_terms` on seeded synthetic
  adjacency problems up to ~1e5 pairs (the regime a production-sized
  unit lattice reaches).  Wall leaves follow the ``wall_*_s`` /
  ``speedup`` naming the benchdiff gate ignores (``wall_scalar_s`` is
  the oracle, ``wall_vector_s`` the kernel); the ``match`` booleans and
  output digests are gated exactly.
- **regrid reuse** — :class:`~repro.execsim.reuse.UnitsReuseCache`
  replayed over the reduced RM3D trace.  The hit rate is a
  deterministic property of the trace (not a timing), so it is gated
  exactly; the incremental-vs-full wall comparison is informational.

Synthetic inputs derive from ``np.random.default_rng(seed).random()``
only — the one generator method with a version-stable stream — so the
committed digests stay reproducible across machines.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

from repro.kernels.bench import load_oracle

__all__ = ["run_execsim_bench", "render_execsim_bench"]

#: adjacency-pair counts for the cost-kernel half (largest drives the gate)
DEFAULT_PAIR_COUNTS = (1_000, 10_000, 100_000)

#: processors the synthetic assignments scatter over
DEFAULT_PROCS = 64


def _digest(values: np.ndarray) -> str:
    payload = ",".join(str(v) for v in np.asarray(values).reshape(-1).tolist())
    return hashlib.sha256(payload.encode()).hexdigest()


def _best_of(fn, repeats: int):
    best = math.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _localized_trace():
    """A scripted localized-adaptation trace: many static patches, one
    drifting front.

    Each transition dirties only the cells the moving fine patch enters
    or leaves (a few percent of the base grid) while the bulk of the
    refinement — a static tiled region of 64 patches — is unchanged: the
    regime the incremental regrid path is built for.
    """
    from repro.amr.box import Box
    from repro.amr.grid import Level, Patch
    from repro.amr.hierarchy import GridHierarchy
    from repro.amr.trace import AdaptationTrace, Snapshot

    domain = Box((0, 0, 0), (64, 32, 32))
    trace = AdaptationTrace(meta={"app": "localized-front"})
    for k in range(30):
        base = Level(index=0, ratio=1)
        base.add(Patch(box=domain, level=0, patch_id=0))
        fine = Level(index=1, ratio=2)
        pid = 0
        # static tiles fill the lower-z half of the fine index space
        for x in range(0, 128, 16):
            for y in range(0, 64, 16):
                for z in range(0, 32, 16):
                    fine.add(Patch(box=Box((x, y, z), (x + 16, y + 16, z + 16)),
                                   level=1, patch_id=pid, load_per_cell=2.0))
                    pid += 1
        # the moving front lives in the upper-z half, clear of the tiles
        x0 = 2 * (4 + k)
        fine.add(Patch(box=Box((x0, 8, 40), (x0 + 16, 40, 56)),
                       level=1, patch_id=pid, load_per_cell=3.0))
        trace.append(Snapshot(
            step=4 * k,
            hierarchy=GridHierarchy(domain=domain, levels=[base, fine]),
        ))
    return trace


def _cost_problem(rng: np.random.Generator, n_pairs: int, procs: int):
    """A synthetic adjacency problem with ~``n_pairs`` cut candidates."""
    n_units = max(n_pairs // 3, 4)
    shapes = (rng.random((n_units, 3)) * 5).astype(int) + 1
    loads = rng.random(n_units) * 40.0
    assignment = (rng.random(n_units) * procs).astype(int)
    i = (rng.random(n_pairs) * n_units).astype(int)
    j = (rng.random(n_pairs) * n_units).astype(int)
    axis = (rng.random(n_pairs) * 3).astype(int)
    return i, j, axis, assignment, shapes, loads


def run_execsim_bench(
    *,
    pair_counts: tuple[int, ...] = DEFAULT_PAIR_COUNTS,
    procs: int = DEFAULT_PROCS,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Produce the ``BENCH_execsim.json`` document."""
    from repro.execsim.costmodel import CostModel, comm_cost_terms
    from repro.execsim.reuse import UnitsReuseCache
    from repro.experiments.common import rm3d_small_trace
    from repro.partitioners.units import build_units

    oracle = load_oracle("ref_costmodel").comm_cost_terms
    cost = CostModel()
    rng = np.random.default_rng(seed)
    doc: dict = {
        "meta": {
            "seed": seed,
            "procs": procs,
            "repeats": repeats,
            "pair_counts": list(pair_counts),
        },
        "cost_kernel": {},
    }

    for n_pairs in pair_counts:
        case = _cost_problem(rng, n_pairs, procs)

        args = (*case, procs, cost.ghost_width, cost.bytes_per_comm_unit)
        wall_s, ref = _best_of(lambda: oracle(*args), repeats)
        wall_v, out = _best_of(lambda: comm_cost_terms(*args), repeats)
        match = (
            bool(np.array_equal(ref[0], out[0]))
            and bool(np.array_equal(ref[1], out[1]))
            and ref[2] == out[2]
        )
        doc["cost_kernel"][f"pairs{n_pairs}"] = {
            "wall_scalar_s": wall_s,
            "wall_vector_s": wall_v,
            "speedup": wall_s / wall_v if wall_v > 0 else float("inf"),
            "match": match,
            "comm_bytes_digest": _digest(out[0]),
            "neighbor_count_digest": _digest(out[1]),
            "ghost_work": out[2],
        }

    # -- regrid reuse -----------------------------------------------------------
    # RM3D retunes every patch's load_per_cell each interval (its
    # heterogeneous load field), so transitions there exercise the
    # high-dirty geometry-reuse path; the synthetic localized trace is
    # the favorable regime — a drifting front touching a few percent of
    # the base grid per interval.
    def _replay(trace):
        cache = UnitsReuseCache()
        t0 = time.perf_counter()
        units = None
        for snap in trace:
            units = cache.units_for(snap.hierarchy, granularity=4)
        wall_incremental = time.perf_counter() - t0
        t0 = time.perf_counter()
        full = None
        for snap in trace:
            full = build_units(snap.hierarchy, granularity=4)
        wall_full = time.perf_counter() - t0
        return cache, {
            "snapshots": len(trace),
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": cache.hit_rate,
            "wall_incremental_s": wall_incremental,
            "wall_full_s": wall_full,
            "final_units_match": bool(
                np.array_equal(units.loads, full.loads)
            ),
            "final_loads_digest": _digest(units.loads),
        }

    cache, rm3d_entry = _replay(rm3d_small_trace())
    _, localized_entry = _replay(_localized_trace())
    doc["reuse"] = {"rm3d": rm3d_entry, "localized": localized_entry}

    largest = f"pairs{max(pair_counts)}"
    doc["gate"] = {
        "largest_pairs": max(pair_counts),
        "cost_speedup_at_largest": doc["cost_kernel"][largest]["speedup"],
        "all_match": all(
            entry["match"] for entry in doc["cost_kernel"].values()
        ) and all(
            entry["final_units_match"] for entry in doc["reuse"].values()
        ),
        "reuse_hit_rate": cache.hit_rate,
    }
    return doc


def render_execsim_bench(doc: dict) -> str:
    """Human-readable table of the bench document."""
    lines = [
        "execsim benchmark "
        f"(seed={doc['meta']['seed']}, procs={doc['meta']['procs']}, "
        f"best of {doc['meta']['repeats']})",
        f"{'case':<14} {'oracle':>10} {'kernel':>10} {'speedup':>8}  match",
    ]
    for case, entry in doc["cost_kernel"].items():
        lines.append(
            f"{case:<14} "
            f"{entry['wall_scalar_s'] * 1e3:>8.2f}ms "
            f"{entry['wall_vector_s'] * 1e3:>8.2f}ms "
            f"{entry['speedup']:>7.1f}x  "
            f"{'ok' if entry['match'] else 'MISMATCH'}"
        )
    for name, r in doc["reuse"].items():
        lines.append(
            f"reuse[{name}]: {r['hits']}/{r['snapshots']} intervals served "
            f"from cache (hit rate {r['hit_rate']:.3f}), incremental "
            f"{r['wall_incremental_s'] * 1e3:.1f}ms vs full "
            f"{r['wall_full_s'] * 1e3:.1f}ms"
        )
    gate = doc["gate"]
    lines.append(
        f"gate: cost kernel {gate['cost_speedup_at_largest']:.1f}x at "
        f"{gate['largest_pairs']} pairs; reuse hit rate "
        f"{gate['reuse_hit_rate']:.3f}; all_match={gate['all_match']}"
    )
    return "\n".join(lines)
