"""Table 3 — Characterizing RM3D application run-time state.

The synthetic RM3D trace is classified with the octant classifier and
partitioners are selected through the Table 2 policy base; the sampled
snapshots must reproduce the paper's rows.  See
:mod:`repro.experiments.table3`.
"""

from repro.experiments import table3


def test_table3_rm3d_octant_characterization(paper_ctx, benchmark):
    result = benchmark.pedantic(table3.run_scenario,
                                args=(paper_ctx("table3"),), rounds=1,
                                iterations=1)
    print("\n" + table3.render_scenario(result))

    rows = result["rows"]  # [octant, partitioner] per snapshot
    assert len(rows) >= 202, "paper: trace consisted of over 200 snap-shots"
    octants_seen = {octant for octant, _ in rows}
    assert octants_seen == {"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}, (
        "the RM3D run should visit every octant"
    )
    matches = sum(
        tuple(rows[idx]) == (oct_, part)
        for idx, (oct_, part) in table3.PAPER.items()
    )
    assert matches == 8, "sampled snapshots must match the paper's Table 3"
