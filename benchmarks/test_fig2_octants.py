"""Figure 2 — The octant approach for characterizing application state.

Synthesizes a grid hierarchy for each corner of the state cube,
classifies it, and checks each lands in its octant.  See
:mod:`repro.experiments.fig2`.
"""

from repro.experiments import fig2
from repro.policy import OctantAxes


def test_fig2_octant_cube(paper_ctx, benchmark):
    result = benchmark(fig2.run_scenario, paper_ctx("fig2"))
    print("\n" + fig2.render_scenario(result))

    failures = []
    for corner in result["corners"]:
        axes = (corner["scattered"], corner["moving"], corner["thin"])
        expected = OctantAxes(
            scattered=axes[0], high_dynamics=axes[1], comm_dominated=axes[2]
        ).octant()
        if corner["octant"] != expected.value:
            failures.append((axes, corner["octant"], expected.value))
    assert not failures, f"corner misclassifications: {failures}"
    assert {c["octant"] for c in result["corners"]} == {
        "I", "II", "III", "IV", "V", "VI", "VII", "VIII"
    }
