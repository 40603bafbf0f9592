"""Shared experiment infrastructure: the reference traces.

Two RM3D adaptation traces are shared across experiments and scenario
sweeps:

- the **reference** trace — the paper's full 128x32x32, 800-coarse-step
  run (~30 s to generate), consumed by the table3/4/5 and fig3/4 paper
  reproductions;
- the **small** trace — a reduced 64x16x16, 160-step run (~1 s),
  consumed by the default sweep scenario set and the test suite.

Both are cached on disk under ``.cache/`` and written via a temp file +
atomic rename, so concurrent sweep workers that race on a cold cache
each produce a complete file (last writer wins with identical content)
instead of interleaving a torn one.  A cached file that no longer
decodes (torn, truncated or bit-flipped) is counted under
``trace.cache_corrupt{file}`` and regenerated the same way.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Callable

from repro import obs
from repro.amr.regrid import RegridPolicy
from repro.amr.trace import AdaptationTrace

__all__ = [
    "NUM_COARSE_STEPS",
    "SMALL_NUM_COARSE_STEPS",
    "reference_policy",
    "rm3d_reference_trace",
    "rm3d_small_trace",
]

#: the paper's run length: 800 coarse steps (+2 regrids) -> 202 snapshots
NUM_COARSE_STEPS = 808

#: the reduced sweep/CI run length (-> 40 snapshots)
SMALL_NUM_COARSE_STEPS = 160

#: what a corrupt cache file raises on load: gzip CRC/length errors
#: (``OSError``), a truncated stream (``EOFError``), bad deflate data
#: (``zlib.error``), bad text or JSON (``ValueError``) and a document
#: missing its fields (``KeyError``)
_CORRUPT = (OSError, EOFError, zlib.error, ValueError, KeyError)


def reference_policy() -> RegridPolicy:
    """The paper's RM3D regrid configuration: factor-2 refinement on a
    128x32x32 base grid, regridding every 4 steps, 3 refined levels."""
    return RegridPolicy(ratio=2, thresholds=(0.2, 0.45, 0.7),
                        regrid_interval=4)


def _default_cache_dir() -> Path:
    return Path(__file__).resolve().parents[3] / ".cache"


def _cached_trace(
    cache_dir: str | Path | None,
    filename: str,
    generate: Callable[[], AdaptationTrace],
) -> AdaptationTrace:
    """Load ``filename`` from the cache dir, generating it atomically.

    The trace is written to a process-unique temp file and renamed into
    place, so concurrent generators cannot expose a partial file to each
    other — the fix for the cold-cache race between parallel sweep
    workers.  A cached file that fails to decode is counted under
    ``trace.cache_corrupt{file}`` and regenerated through the same path.
    """
    cache_dir = (
        _default_cache_dir() if cache_dir is None else Path(cache_dir)
    )
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / filename
    if path.exists():
        try:
            return AdaptationTrace.load(path)
        except _CORRUPT:
            obs.counter("trace.cache_corrupt", file=filename).inc()
    trace = generate()
    tmp = cache_dir / f".{filename}.{os.getpid()}.tmp"
    try:
        trace.save(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on write failure
            tmp.unlink()
    return trace


def rm3d_reference_trace(
    cache_dir: str | Path | None = None,
) -> AdaptationTrace:
    """The reference RM3D adaptation trace, cached under ``cache_dir``.

    Defaults to ``<repo>/.cache``; generation takes ~30 s on first use.
    """
    from repro.apps import RM3D, generate_trace

    return _cached_trace(
        cache_dir,
        "rm3d_reference_trace.json.gz",
        lambda: generate_trace(RM3D(), reference_policy(), NUM_COARSE_STEPS),
    )


def rm3d_small_trace(cache_dir: str | Path | None = None) -> AdaptationTrace:
    """The reduced RM3D trace (64x16x16, 160 steps), cached on disk.

    Seconds to generate; the default input of the trace-consuming sweep
    scenarios so the full registered set stays CI-sized.
    """
    from repro.apps import generate_trace
    from repro.apps.rm3d import RM3D, RM3DConfig

    def generate() -> AdaptationTrace:
        cfg = RM3DConfig(
            shape=(64, 16, 16), interface_x=20.0, shock_entry_snapshot=6.0,
            shock_speed=3.0, reshock_snapshot=30.0, num_seed_clumps=5,
            num_mixing_structures=10,
        )
        policy = RegridPolicy(thresholds=(0.2, 0.45, 0.7), regrid_interval=4)
        return generate_trace(RM3D(cfg), policy, SMALL_NUM_COARSE_STEPS)

    return _cached_trace(cache_dir, "rm3d_small_trace.json.gz", generate)
