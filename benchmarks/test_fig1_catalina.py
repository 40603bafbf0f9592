"""Figure 1 — The CATALINA architecture, exercised end to end.

Drives spec → template → ADM → CAs → Message Center through an injected
node failure and verifies each architectural element did its job.  See
:mod:`repro.experiments.fig1`.
"""

from repro.experiments import fig1


def test_fig1_catalina_architecture(paper_ctx, benchmark):
    result = benchmark.pedantic(fig1.run_scenario, args=(paper_ctx("fig1"),),
                                rounds=1, iterations=1)
    print("\n" + fig1.render_scenario(result))

    # Every architectural element participated.
    agents = result["agents"]  # one per component, in component order
    assert result["template"] == "performance-managed"
    assert result["done"], "application must complete despite the failure"
    assert agents[0]["migrations"] >= 1, "ADM must migrate off node 0"
    assert agents[0]["node"] != 0
    assert any(agent["events"] > 0 for agent in agents)
    assert result["delivered"] > 0
    assert len(result["decisions"]) >= 1
