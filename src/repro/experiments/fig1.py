"""Figure 1 — The CATALINA architecture, exercised end to end."""

from __future__ import annotations

from repro.agents import ManagementComputingSystem, ManagementEditor
from repro.agents.mcs import ExecutionEnvironment
from repro.apps.loadgen import LoadPattern
from repro.gridsys import FailureEvent, linux_cluster
from repro.monitoring import ResourceMonitor
from repro.sweep.scenario import ScenarioContext

__all__ = ["run_scenario", "render_scenario"]


def _run(seed: int = 21) -> ExecutionEnvironment:
    cluster = linux_cluster(
        8, load_pattern=LoadPattern.STEPPED, max_load=0.5, seed=seed
    )
    cluster.failures.add(FailureEvent(node_id=0, t_fail=10.0, t_recover=1e9))
    monitor = ResourceMonitor(cluster, seed=seed + 1)

    spec = (
        ManagementEditor("rm3d-managed")
        .add_component("solver-west", 4.0e7)
        .add_component("solver-east", 4.0e7)
        .require("performance", 1.0)
        .manage("performance", "migration")
        .build()
    )
    mcs = ManagementComputingSystem(cluster, monitor=monitor)
    env = mcs.build_environment(spec)
    # Pin one component to the doomed node so the fault path is exercised.
    env.components[0].node_id = 0
    env.run(2000.0)
    return env


def _digest(env: ExecutionEnvironment) -> dict:
    return {
        "spec": {
            "name": env.spec.name,
            "components": list(env.spec.components),
            "requirements": dict(env.spec.requirements),
        },
        "template": env.template.name,
        "decisions": [list(d) for d in env.adm.decisions],
        "agents": [
            {
                "name": agent.port.name,
                "node": comp.node_id,
                "migrations": comp.migrations,
                "events": agent.events_published,
                "actions": len(agent.actions_taken),
            }
            for comp, agent in zip(env.components, env.agents)
        ],
        "delivered": env.message_center.delivered_count,
        "done": bool(env.done),
    }


def run_scenario(ctx: ScenarioContext) -> dict:
    """Scenario entrypoint: AME spec → MCS build → ADM/CA management
    through a node failure; returns the JSON pipeline-trace digest."""
    return _digest(_run(seed=ctx.params.get("seed", 21)))


def render_scenario(result: dict) -> str:
    """Format the management-pipeline trace as text."""
    spec = result["spec"]
    lines = [
        "Figure 1 — CATALINA management pipeline trace",
        f"  AME spec: {spec['name']}, components={tuple(spec['components'])}, "
        f"requirements={spec['requirements']}",
        f"  MCS template discovered: {result['template']}",
        f"  ADM decisions: {[tuple(d) for d in result['decisions']]}",
    ]
    for agent in result["agents"]:
        lines.append(
            f"  CA {agent['name']}: node={agent['node']} "
            f"migrations={agent['migrations']} events={agent['events']} "
            f"actions={agent['actions']}"
        )
    lines.append(
        f"  Message Center delivered {result['delivered']} messages"
    )
    return "\n".join(lines)
