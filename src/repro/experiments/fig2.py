"""Figure 2 — The octant state cube, regenerated from synthetic states."""

from __future__ import annotations

from repro.amr.box import Box
from repro.amr.grid import Level, Patch
from repro.amr.hierarchy import GridHierarchy
from repro.policy import (
    Octant,
    OctantAxes,
    OctantThresholds,
    classify_hierarchy,
)
from repro.policy.octant import AppSignals
from repro.sweep.scenario import ScenarioContext

__all__ = ["CORNER_THRESHOLDS", "run_scenario", "render_scenario"]

DOMAIN = Box.from_shape((64, 32, 32))

#: The comm/comp signal (ghost surface per unit of compute) is scale
#: dependent: these synthetic corner states are shallow two-level
#: hierarchies, so the boundary between sheet-like (comm) and cube-like
#: (comp) refinement sits at a higher ratio than on the deep RM3D
#: hierarchies the defaults are calibrated for.  Thresholds are
#: calibration policy, exactly as in the paper's knowledge base.
CORNER_THRESHOLDS = OctantThresholds(min_comm_ratio=1.0)


def _hierarchy(boxes) -> GridHierarchy:
    base = Level(index=0, ratio=1)
    base.add(Patch(box=DOMAIN, level=0, patch_id=0))
    fine = Level(index=1, ratio=2)
    for i, (lo, hi) in enumerate(boxes):
        fine.add(Patch(box=Box(lo, hi).refine(2), level=1, patch_id=i + 1))
    return GridHierarchy(domain=DOMAIN, levels=[base, fine])


def corner_state(
    scattered: bool, moving: bool, thin: bool, shifted: bool
) -> GridHierarchy:
    """Synthesize a hierarchy for one cube corner.

    ``thin`` produces sheet-like refinement (communication dominated);
    ``shifted`` displaces the features (synthesizes the previous snapshot
    for the dynamics axis).
    """
    dx = 16 if (moving and shifted) else 0
    if scattered:
        centers = [(8, 6, 6), (40, 24, 24), (8, 24, 6), (40, 6, 24),
                   (24, 16, 16)]
    else:
        centers = [(28, 14, 14)]
    boxes = []
    for cx, cy, cz in centers:
        cx = (cx + dx) % 48 + 4
        if thin:
            boxes.append(((cx, cy - 5, cz - 5), (cx + 1, cy + 5, cz + 5)))
        else:
            boxes.append(((cx - 4, cy - 4, cz - 4), (cx + 4, cy + 4, cz + 4)))
    return _hierarchy(boxes)


def _run() -> dict[tuple[bool, bool, bool], tuple[Octant, AppSignals]]:
    out = {}
    for scattered in (False, True):
        for moving in (False, True):
            for thin in (False, True):
                current = corner_state(scattered, moving, thin, shifted=False)
                previous = corner_state(scattered, moving, thin, shifted=True)
                octant, signals = classify_hierarchy(
                    current, previous, CORNER_THRESHOLDS
                )
                out[(scattered, moving, thin)] = (octant, signals)
    return out


def _digest(results) -> dict:
    corners = []
    for (scattered, moving, thin), (octant, _sig) in sorted(results.items()):
        expected = OctantAxes(
            scattered=scattered, high_dynamics=moving, comm_dominated=thin
        ).octant()
        corners.append({
            "scattered": scattered,
            "moving": moving,
            "thin": thin,
            "octant": octant.value,
            "expected": expected.value,
            "ok": octant is expected,
        })
    return {"corners": corners}


def run_scenario(ctx: ScenarioContext) -> dict:
    """Scenario entrypoint: classify all 8 synthetic corner states;
    returns the JSON state-cube digest."""
    return _digest(_run())


def render_scenario(result: dict) -> str:
    """Format the classified state cube as text."""
    lines = [
        "Figure 2 — the octant state cube",
        f"{'pattern':>10} {'dynamics':>9} {'dominance':>10} "
        f"{'-> octant':>10} {'expected':>9}",
    ]
    for c in result["corners"]:
        lines.append(
            f"{'scattered' if c['scattered'] else 'localized':>10} "
            f"{'high' if c['moving'] else 'low':>9} "
            f"{'comm' if c['thin'] else 'comp':>10} "
            f"{c['octant']:>10} {c['expected']:>9} "
            f"{'ok' if c['ok'] else 'MISS'}"
        )
    return "\n".join(lines)
