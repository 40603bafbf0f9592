"""Table 2 — Octant → partitioning-scheme recommendations."""

from __future__ import annotations

from repro.policy import Octant, default_policy_base
from repro.sweep.scenario import ScenarioContext

__all__ = ["PAPER", "run_scenario", "render_scenario"]

PAPER = {
    "I": ("pBD-ISP", "G-MISP+SP"),
    "II": ("pBD-ISP",),
    "III": ("G-MISP+SP", "SP-ISP"),
    "IV": ("G-MISP+SP", "SP-ISP", "ISP"),
    "V": ("pBD-ISP",),
    "VI": ("pBD-ISP",),
    "VII": ("G-MISP+SP",),
    "VIII": ("G-MISP+SP", "ISP"),
}


def _run() -> dict[Octant, dict]:
    kb = default_policy_base()
    return {octant: kb.merged_action({"octant": octant}) for octant in Octant}


def _digest(actions: dict[Octant, dict]) -> dict:
    return {
        "octants": {
            octant.value: {
                "partitioners": list(action["partitioners"]),
                "partitioner": action["partitioner"],
            }
            for octant, action in actions.items()
        },
    }


def run_scenario(ctx: ScenarioContext) -> dict:
    """Scenario entrypoint: query the default policy base for every
    octant; returns the JSON recommendation digest."""
    return _digest(_run())


def render_scenario(result: dict) -> str:
    """Format the Table 2 comparison (ours vs paper) as text."""
    lines = [
        "Table 2 — Octant -> partitioning scheme recommendations",
        f"{'octant':>7}  {'schemes (ours)':<28} {'schemes (paper)':<28}",
    ]
    for octant in Octant:
        ours = ", ".join(result["octants"][octant.value]["partitioners"])
        paper = ", ".join(PAPER[octant.value])
        lines.append(f"{octant.value:>7}  {ours:<28} {paper:<28}")
    return "\n".join(lines)
