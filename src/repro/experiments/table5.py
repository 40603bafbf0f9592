"""Table 5 — Improvement due to system-sensitive adaptive partitioning."""

from __future__ import annotations

from repro.amr.trace import AdaptationTrace
from repro.apps.loadgen import LoadPattern
from repro.core import CapacityCalculator, CapacityWeights, SystemSensitivePipeline
from repro.execsim import CostModel
from repro.gridsys import linux_cluster
from repro.monitoring import ResourceMonitor
from repro.sweep.scenario import ScenarioContext

__all__ = ["PROC_COUNTS", "PAPER_32_NODE_IMPROVEMENT", "run_scenario",
           "render_scenario"]

PROC_COUNTS = (4, 8, 16, 32)

#: "System sensitive partitioning reduced execution time by about 18% in
#: the case of 32 nodes."
PAPER_32_NODE_IMPROVEMENT = 18.0


def build_pipeline(seed: int = 42) -> SystemSensitivePipeline:
    """The Section 4.6 testbed: 32 loaded nodes on fast Ethernet."""
    cluster = linux_cluster(
        32, load_pattern=LoadPattern.STEPPED, max_load=0.58, seed=seed
    )
    monitor = ResourceMonitor(cluster, seed=1)
    calculator = CapacityCalculator(
        monitor, CapacityWeights(cpu=0.8, memory=0.05, bandwidth=0.15)
    )
    # The RM3D cluster kernel uses latency-tolerant communication
    # (a Section 3.5 policy), overlapping most ghost exchange.
    return SystemSensitivePipeline(
        cluster=cluster,
        calculator=calculator,
        cost_model=CostModel(comm_overlap=0.75),
    )


def _run(trace: AdaptationTrace, seed: int = 42) -> dict[int, float]:
    pipeline = build_pipeline(seed)
    pipeline.warm_up()
    return {
        n: pipeline.improvement_pct(trace, num_procs=n) for n in PROC_COUNTS
    }


def _digest(improvements: dict[int, float]) -> dict:
    return {
        "improvements": {str(n): improvements[n] for n in sorted(improvements)},
    }


def run_scenario(ctx: ScenarioContext) -> dict:
    """Scenario entrypoint: improvement of system-sensitive over equal
    partitioning at each processor count; returns the JSON digest."""
    return _digest(_run(ctx.trace(), seed=ctx.params.get("seed", 42)))


def render_scenario(result: dict) -> str:
    """Format the per-processor-count improvement table as text."""
    lines = [
        "Table 5 — improvement of system-sensitive over equal partitioning",
        f"{'processors':>11} {'improvement(%)':>15}",
    ]
    for n in sorted(result["improvements"], key=int):
        lines.append(f"{int(n):>11} {result['improvements'][n]:>15.1f}")
    lines.append(
        f"(paper: about {PAPER_32_NODE_IMPROVEMENT:.0f}% at 32 nodes, "
        "growing with processor count)"
    )
    return "\n".join(lines)
