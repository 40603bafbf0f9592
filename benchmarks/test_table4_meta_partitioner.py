"""Table 4 — Partitioner performance for RM3D on 64 processors.

Shape targets (paper values in :mod:`repro.experiments.table4`): the
adaptive run is fastest, SFC slowest, G-MISP+SP the best static; adaptive
improves ~25% over the slowest ("27.2%" in the paper); G-MISP+SP has the
best static load balance and pBD-ISP the worst; AMR efficiencies all sit
at ~98.6-98.9%.
"""

import pytest

from repro.experiments import table4


def test_table4_partitioner_performance(paper_ctx, benchmark):
    result = benchmark.pedantic(table4.run_scenario,
                                args=(paper_ctx("table4"),), rounds=1,
                                iterations=1)
    print("\n" + table4.render_scenario(result))

    results = result["partitioners"]  # adaptive + the static baselines
    rt = {name: r["runtime_s"] for name, r in results.items()}
    # Who wins: the paper's full runtime ordering.
    assert rt["adaptive"] < rt["G-MISP+SP"] < rt["pBD-ISP"] < rt["SFC"]
    # By roughly what factor: ~27% over the slowest.
    assert 15.0 < result["improvement_over_worst_pct"] < 40.0
    # Load balance ordering of the static schemes.
    imb = {name: r["imbalance_pct"] for name, r in results.items()}
    assert imb["G-MISP+SP"] < imb["SFC"] < imb["pBD-ISP"]
    assert imb["G-MISP+SP"] == pytest.approx(11.3, abs=6.0)
    assert imb["pBD-ISP"] == pytest.approx(35.0, abs=8.0)
    # AMR efficiency: all ~98.8%, within a fraction of a percent.
    for r in results.values():
        assert r["efficiency_pct"] == pytest.approx(98.8, abs=0.4)
    # The adaptive run actually switches: both families used.
    usage = result["adaptive_usage"]
    assert "pBD-ISP" in usage and "G-MISP+SP" in usage
