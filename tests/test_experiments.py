"""Tests for the experiments package and the CLI."""

import pytest

from repro.experiments import EXPERIMENTS, fig2, table1, table2, table3
from repro.experiments.fig3 import ascii_profile
from repro.cli import main as cli_main
from repro.sweep.scenario import ScenarioContext


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4", "table5",
            "fig1", "fig2", "fig3", "fig4",
        }

    def test_modules_expose_run_scenario_and_render_scenario(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run_scenario)
            assert callable(module.render_scenario)


class TestLightweightExperiments:
    def test_table2_render(self):
        out = table2.render_scenario(table2.run_scenario(ScenarioContext()))
        assert "Table 2" in out
        for octant in ("I", "VIII"):
            assert octant in out

    def test_fig2_runs_clean(self):
        result = fig2.run_scenario(ScenarioContext())
        assert len(result["corners"]) == 8
        out = fig2.render_scenario(result)
        assert "MISS" not in out

    def test_table3_on_small_trace(self, small_rm3d_trace, tmp_path):
        # seed a private trace cache with the fixture (the same reduced
        # RM3D run the "small" spec names) so the scenario loads it
        small_rm3d_trace.save(tmp_path / "rm3d_small_trace.json.gz")
        ctx = ScenarioContext(params={"trace": "small"}, cache_dir=tmp_path)
        result = table3.run_scenario(ctx)
        assert result["num_snapshots"] == len(small_rm3d_trace)
        # render compares against paper indices; needs >= 202 rows, so
        # just exercise the row structure here.
        assert all(partitioner for _octant, partitioner in result["rows"])

    def test_table1_paper_constants(self):
        assert set(table1.PAPER) == {200, 400, 600, 800, 1000}

    def test_ascii_profile(self):
        import numpy as np

        strip = ascii_profile(np.linspace(0, 1, 128), bins=16)
        assert len(strip) == 16
        assert strip[0] == " " and strip[-1] == "@"


class TestCLI:
    def test_cli_lightweight_experiment(self, capsys):
        assert cli_main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_cli_multiple(self, capsys):
        assert cli_main(["table2", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Figure 2" in out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["table99"])
