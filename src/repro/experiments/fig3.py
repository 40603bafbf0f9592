"""Figure 3 — RM3D profile views at sampled time-steps."""

from __future__ import annotations

import numpy as np

from repro.amr.trace import AdaptationTrace
from repro.sweep.scenario import ScenarioContext

__all__ = ["SAMPLED", "ascii_profile", "run_scenario", "render_scenario"]

SAMPLED = (0, 5, 25, 106, 137, 162, 174, 201)


def _run(trace: AdaptationTrace) -> dict[int, dict]:
    out = {}
    for idx in SAMPLED:
        if idx >= len(trace):
            continue
        snap = trace[idx]
        mask = snap.hierarchy.refined_mask()
        out[idx] = {
            "x_profile": mask.mean(axis=(1, 2)),
            "refined_fraction": float(mask.mean()),
            "patches": snap.num_patches,
            "levels": snap.hierarchy.num_levels,
            "cells": snap.total_cells,
        }
    return out


def _digest(data: dict[int, dict]) -> dict:
    return {
        "snapshots": [
            {
                "index": idx,
                "x_profile": [float(v) for v in d["x_profile"]],
                "refined_fraction": d["refined_fraction"],
                "patches": d["patches"],
                "levels": d["levels"],
                "cells": d["cells"],
            }
            for idx, d in sorted(data.items())
        ],
    }


def run_scenario(ctx: ScenarioContext) -> dict:
    """Scenario entrypoint: refinement profiles + structure stats at the
    sampled snapshots present in the configured trace; returns the JSON
    profile digest."""
    return _digest(_run(ctx.trace()))


def ascii_profile(profile: np.ndarray, bins: int = 64) -> str:
    """Render an x-profile as a density strip."""
    ramp = " .:-=+*#%@"
    resampled = profile[(np.arange(bins) * len(profile) / bins).astype(int)]
    idx = np.minimum(
        (resampled * (len(ramp) - 1) / max(resampled.max(), 1e-9)).astype(int),
        len(ramp) - 1,
    )
    return "".join(ramp[i] for i in idx)


def render_scenario(result: dict) -> str:
    """Format the sampled refinement profiles as ASCII strips."""
    lines = [
        "Figure 3 — RM3D refinement profiles at sampled snapshots",
        "(density of refined cells along the shock axis x)",
    ]
    for d in result["snapshots"]:
        lines.append(
            f"  t={d['index']:>3}  "
            f"|{ascii_profile(np.asarray(d['x_profile']))}|  "
            f"rf={d['refined_fraction']:.3f} patches={d['patches']}"
        )
    return "\n".join(lines)
