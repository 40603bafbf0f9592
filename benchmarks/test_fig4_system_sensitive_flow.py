"""Figure 4 — System-sensitive adaptive AMR partitioning data flow.

Drives monitoring → capacity calculation → heterogeneous partitioning on
a loaded 8-node cluster and verifies each arrow of the figure.  See
:mod:`repro.experiments.fig4`.
"""

import numpy as np
import pytest

from repro.experiments import fig4


def test_fig4_system_sensitive_flow(paper_ctx, benchmark):
    result = benchmark.pedantic(fig4.run_scenario, args=(paper_ctx("fig4"),),
                                rounds=1, iterations=1)
    print("\n" + fig4.render_scenario(result))

    nodes = result["nodes"]
    # Monitoring arrow: all three attributes measured on every node.
    assert len(nodes) == 8
    for st in nodes:
        assert 0 <= st["cpu_avail"] <= 1
        assert st["memory"] > 0 and st["bandwidth"] > 0
    # Capacity arrow: normalized, and the loaded tail gets less.
    capacities = np.array([st["capacity"] for st in nodes])
    assert capacities.sum() == pytest.approx(1.0)
    assert capacities[0] > capacities[7]
    # Partitioning arrow: load shares follow capacities.
    shares = np.array([st["load_share"] for st in nodes])
    corr = np.corrcoef(capacities, shares)[0, 1]
    assert corr > 0.9, f"load shares must track capacities (corr={corr:.2f})"
