"""Deterministic op-level microbenchmarks: frozen oracle vs kernel.

``python -m repro kernels-bench`` times every production kernel against
the scalar loop it replaced — the frozen oracle under
``tests/reference/``, loaded by file path, so the bench runs only from a
source checkout — on seeded synthetic inputs and writes a
``BENCH_kernels.json`` document.  Wall-clock leaves follow the
``wall_*_s`` / ``speedup`` naming that the :mod:`repro.obs.benchdiff`
gate ignores (``wall_scalar_s`` is the oracle, ``wall_vector_s`` the
kernel); the gateable leaves are the oracle-vs-kernel ``match``
booleans and the output ``digest`` strings, which must stay stable
across machines and runs.

Inputs are generated from ``np.random.default_rng(seed).random()``
only — the one generator method with a version-stable stream — so the
digests in a committed baseline stay reproducible.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import time
from pathlib import Path

import numpy as np

__all__ = ["load_oracle", "run_kernels_bench", "render_kernels_bench"]

#: the frozen scalar oracles, present only in a source checkout
ORACLE_DIR = Path(__file__).resolve().parents[3] / "tests" / "reference"

#: unit counts for the 1-D sequence kernels (largest drives the CI gate)
DEFAULT_SIZES = (1_000, 10_000, 100_000)

#: lattice shape for the pBD dissection kernel
PBD_SHAPE = (32, 32, 32)

#: base-domain shape for the composite load-map kernel
WORKLOAD_SHAPE = (64, 32, 32)


def _digest(values: np.ndarray) -> str:
    payload = ",".join(str(v) for v in np.asarray(values).reshape(-1).tolist())
    return hashlib.sha256(payload.encode()).hexdigest()


def load_oracle(name: str):
    """Load the frozen oracle module ``tests/reference/<name>.py`` by path."""
    path = ORACLE_DIR / f"{name}.py"
    if not path.is_file():
        raise FileNotFoundError(
            f"frozen oracle {path} not found: the kernel benches time the "
            "kernels against tests/reference/, which only a source checkout "
            "of the repository contains"
        )
    spec = importlib.util.spec_from_file_location(f"_oracle_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _best_of(fn, repeats: int):
    """(best wall seconds, last result) over ``repeats`` calls."""
    best = math.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _pair(oracle, kernel, args: tuple, repeats: int) -> dict:
    """Time ``oracle(*args)`` and ``kernel(*args)``; compare the outputs."""
    wall_s, ref = _best_of(lambda: oracle(*args), repeats)
    wall_v, out = _best_of(lambda: kernel(*args), repeats)
    match = bool(np.array_equal(np.asarray(ref), np.asarray(out)))
    return {
        "wall_scalar_s": wall_s,
        "wall_vector_s": wall_v,
        "speedup": wall_s / wall_v if wall_v > 0 else float("inf"),
        "match": match,
        "digest": _digest(out),
    }


def _sequence_loads(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random loads with a few deterministic heavy spikes."""
    loads = rng.random(n)
    loads[:: max(n // 7, 1)] *= 100.0
    return loads


def _bench_hierarchies(rng: np.random.Generator) -> dict:
    """Named hierarchies spanning the patch-count regimes.

    ``bulky``: a noise field clustered into few large patches (slice adds
    are near-optimal there); ``spiky``: sparse isolated spikes clustered
    into many small patches (the per-patch dispatch overhead the scatter
    kernel removes).
    """
    from repro.amr.box import Box
    from repro.amr.regrid import Regridder, RegridPolicy

    domain = Box((0, 0, 0), WORKLOAD_SHAPE)
    noise = rng.random(domain.shape)
    bulky = Regridder(
        domain, RegridPolicy(thresholds=(0.55, 0.85))
    ).regrid(noise)
    spikes = np.where(rng.random(domain.shape) > 0.985, 1.0, 0.0)
    spiky = Regridder(domain, RegridPolicy(thresholds=(0.5,))).regrid(spikes)
    return {"bulky": bulky, "spiky": spiky}


def run_kernels_bench(
    *,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    procs: int = 64,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Time every kernel against its oracle; returns ``BENCH_kernels.json``."""
    from repro.amr.workload import composite_load_map
    from repro.partitioners.gmisp import variable_grain_segments
    from repro.partitioners.pbd_isp import pbd_partition_cube
    from repro.partitioners.sequence import (
        greedy_sequence_partition,
        optimal_sequence_partition,
        weighted_sequence_partition,
    )

    ref_sequence = load_oracle("ref_sequence")
    ref_gmisp = load_oracle("ref_gmisp")
    ref_pbd = load_oracle("ref_pbd")
    ref_workload = load_oracle("ref_workload")

    rng = np.random.default_rng(seed)
    doc: dict = {
        "meta": {
            "seed": seed,
            "procs": procs,
            "repeats": repeats,
            "sizes": list(sizes),
        },
        "kernels": {},
    }

    greedy: dict = {}
    weighted: dict = {}
    optimal: dict = {}
    gmisp: dict = {}
    for n in sizes:
        loads = _sequence_loads(rng, n)
        capacities = rng.random(procs) + 0.05
        key = f"n{n}"
        greedy[key] = _pair(ref_sequence.greedy_sequence_partition,
                            greedy_sequence_partition, (loads, procs),
                            repeats)
        weighted[key] = _pair(ref_sequence.weighted_sequence_partition,
                              weighted_sequence_partition,
                              (loads, procs, capacities), repeats)
        optimal[key] = _pair(ref_sequence.optimal_sequence_partition,
                             optimal_sequence_partition, (loads, procs),
                             repeats)
        gmisp[key] = _pair(ref_gmisp.variable_grain_segments,
                           variable_grain_segments, (loads, procs, 64, 0.25),
                           repeats)
    doc["kernels"]["greedy"] = greedy
    doc["kernels"]["weighted"] = weighted
    doc["kernels"]["optimal"] = optimal
    doc["kernels"]["gmisp_segments"] = gmisp

    cube = rng.random(PBD_SHAPE)
    doc["kernels"]["pbd"] = {
        "cube32": _pair(ref_pbd.pbd_partition_cube, pbd_partition_cube,
                        (cube, procs), repeats)
    }

    doc["kernels"]["workload"] = {
        name: _pair(ref_workload.composite_values,
                    lambda h: composite_load_map(h).values, (h,), repeats)
        for name, h in _bench_hierarchies(rng).items()
    }

    largest = f"n{max(sizes)}"
    doc["gate"] = {
        "largest_n": max(sizes),
        "greedy_speedup_at_largest": greedy[largest]["speedup"],
        "weighted_speedup_at_largest": weighted[largest]["speedup"],
        "all_match": all(
            entry["match"]
            for kern in doc["kernels"].values()
            for entry in kern.values()
        ),
    }
    return doc


def render_kernels_bench(doc: dict) -> str:
    """Human-readable table of the bench document."""
    lines = [
        "kernels microbenchmark "
        f"(seed={doc['meta']['seed']}, procs={doc['meta']['procs']}, "
        f"best of {doc['meta']['repeats']})",
        f"{'kernel':<16} {'case':<14} {'oracle':>10} {'kernel':>10} "
        f"{'speedup':>8}  match",
    ]
    for kern, cases in doc["kernels"].items():
        for case, entry in cases.items():
            lines.append(
                f"{kern:<16} {case:<14} "
                f"{entry['wall_scalar_s'] * 1e3:>8.2f}ms "
                f"{entry['wall_vector_s'] * 1e3:>8.2f}ms "
                f"{entry['speedup']:>7.1f}x  "
                f"{'ok' if entry['match'] else 'MISMATCH'}"
            )
    gate = doc["gate"]
    lines.append(
        f"gate: greedy {gate['greedy_speedup_at_largest']:.1f}x, weighted "
        f"{gate['weighted_speedup_at_largest']:.1f}x at n={gate['largest_n']}; "
        f"all_match={gate['all_match']}"
    )
    return "\n".join(lines)
