"""Table 1 — Accuracy of the Performance Functions."""

from __future__ import annotations

from repro.perf import PFModelingExperiment
from repro.perf.endtoend import PFAccuracyRow, TABLE1_SIZES
from repro.sweep.scenario import ScenarioContext

__all__ = ["PAPER", "run_scenario", "render_scenario"]

#: data size (bytes) -> (predicted delay, measured delay, % error)
PAPER = {
    200: (8.2759e-04, 8.3187e-04, 0.515),
    400: (0.0011815, 0.0011288, 4.67),
    600: (0.0014516, 0.0015312, 5.2),
    800: (0.0017969, 0.0018809, 4.46),
    1000: (0.0021705, 0.00223055, 2.7),
}


def _run(seed: int = 3) -> list[PFAccuracyRow]:
    return PFModelingExperiment(seed=seed).evaluate(TABLE1_SIZES)


def _digest(rows: list[PFAccuracyRow]) -> dict:
    return {
        "rows": [
            {
                "size": r.data_size,
                "predicted": r.predicted,
                "measured": r.measured,
                "error_pct": r.error_pct,
            }
            for r in rows
        ],
    }


def run_scenario(ctx: ScenarioContext) -> dict:
    """Scenario entrypoint: fit per-component PFs, compose end to end,
    validate on the Table 1 sizes; returns the JSON row digest."""
    return _digest(_run(seed=ctx.params.get("seed", 3)))


def render_scenario(result: dict) -> str:
    """Format the Table 1 comparison (ours vs paper) as text."""
    lines = [
        "Table 1 — Accuracy of the Performance Functions",
        f"{'size(B)':>8} {'predicted':>12} {'measured':>12} "
        f"{'%error':>8} {'paper %error':>13}",
    ]
    for r in result["rows"]:
        paper = PAPER.get(r["size"])
        paper_err = f"{paper[2]:>13.3f}" if paper else f"{'-':>13}"
        lines.append(
            f"{r['size']:>8} {r['predicted']:>12.6g} {r['measured']:>12.6g} "
            f"{r['error_pct']:>8.3f} {paper_err}"
        )
    return "\n".join(lines)
