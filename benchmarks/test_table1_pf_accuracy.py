"""Table 1 — Accuracy of the Performance Functions.

Paper: composed-PF prediction of the PC1 -> switch -> PC2 response time
is accurate to "roughly between 0.5 - 5%".  See
:mod:`repro.experiments.table1` for the harness.
"""

import pytest

from repro.experiments import table1


def test_table1_pf_accuracy(paper_ctx, benchmark):
    result = benchmark.pedantic(table1.run_scenario,
                                args=(paper_ctx("table1"),), rounds=1,
                                iterations=1)
    print("\n" + table1.render_scenario(result))

    # Shape assertions: millisecond regime, monotone growth, paper band.
    rows = result["rows"]
    measured = [r["measured"] for r in rows]
    assert measured == sorted(measured)
    for r in rows:
        _, paper_meas, _ = table1.PAPER[r["size"]]
        assert r["measured"] == pytest.approx(paper_meas, rel=0.25), (
            "simulated delay regime should track the paper's measurements"
        )
        assert r["error_pct"] < 6.0, (
            "error must stay in the paper's 0.5-5% band"
        )
