"""Tests for the execution simulator."""

import pytest

from repro.amr.trace import AdaptationTrace
from repro.config import SimulatorOptions
from repro.execsim import (
    CostModel,
    ExecutionSimulator,
    StaticSelector,
)
from repro.gridsys import linux_cluster, sp2_blue_horizon
from repro.partitioners import (
    EqualPartitioner,
    GMISPSPPartitioner,
    HeterogeneousPartitioner,
    ISPPartitioner,
)


class TestCostModel:
    def test_defaults_valid(self):
        CostModel()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostModel(ghost_width=-1.0)
        with pytest.raises(ValueError):
            CostModel(latency_per_neighbor=-1e-3)


class TestSimulatorBasics:
    def test_run_produces_records(self, small_rm3d_trace):
        sim = ExecutionSimulator(sp2_blue_horizon(8))
        res = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        assert len(res.records) == len(small_rm3d_trace)
        assert res.total_runtime > 0
        assert res.useful_work > 0
        assert 90.0 < res.amr_efficiency_pct <= 100.0

    def test_coarse_step_coverage(self, small_rm3d_trace):
        sim = ExecutionSimulator(sp2_blue_horizon(4))
        res = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        total_steps = sum(r.coarse_steps for r in res.records)
        assert total_steps == small_rm3d_trace.meta["num_coarse_steps"]

    def test_num_procs_capped_by_cluster(self):
        with pytest.raises(ValueError):
            ExecutionSimulator(sp2_blue_horizon(4), num_procs=8)

    def test_empty_trace_rejected(self):
        sim = ExecutionSimulator(sp2_blue_horizon(2))
        with pytest.raises(ValueError):
            sim.run(AdaptationTrace(), StaticSelector(ISPPartitioner()))

    def test_zero_coarse_steps_rejected(self, small_rm3d_trace):
        """An explicit num_coarse_steps=0 must fail loudly, not silently
        fall back to the trace metadata (falsy-zero coalescing bug)."""
        sim = ExecutionSimulator(sp2_blue_horizon(4))
        selector = StaticSelector(ISPPartitioner())
        with pytest.raises(ValueError, match="num_coarse_steps"):
            sim.run(small_rm3d_trace, selector, num_coarse_steps=0)
        with pytest.raises(ValueError, match="num_coarse_steps"):
            sim.run(small_rm3d_trace, selector, num_coarse_steps=-4)

    def test_explicit_coarse_steps_respected(self, small_rm3d_trace):
        sim = ExecutionSimulator(sp2_blue_horizon(4))
        selector = StaticSelector(ISPPartitioner())
        res = sim.run(small_rm3d_trace, selector, num_coarse_steps=200)
        assert sum(r.coarse_steps for r in res.records) == 200

    def test_proc_work_conserved(self, small_rm3d_trace):
        sim = ExecutionSimulator(sp2_blue_horizon(4))
        res = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        expected = sum(
            s.hierarchy.load_per_coarse_step() * 4 for s in small_rm3d_trace
        )
        assert res.proc_work.sum() == pytest.approx(expected, rel=1e-9)

    def test_partitioner_usage_static(self, small_rm3d_trace):
        sim = ExecutionSimulator(sp2_blue_horizon(4))
        res = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        assert res.partitioner_usage() == {"ISP": len(small_rm3d_trace)}


class TestScalingBehaviors:
    def test_more_procs_faster(self, small_rm3d_trace):
        fast = ExecutionSimulator(sp2_blue_horizon(16)).run(
            small_rm3d_trace, StaticSelector(GMISPSPPartitioner())
        )
        slow = ExecutionSimulator(sp2_blue_horizon(2)).run(
            small_rm3d_trace, StaticSelector(GMISPSPPartitioner())
        )
        assert fast.total_runtime < slow.total_runtime

    def test_background_load_slows_run(self, small_rm3d_trace):
        idle = ExecutionSimulator(sp2_blue_horizon(8)).run(
            small_rm3d_trace, StaticSelector(ISPPartitioner())
        )
        # same nominal speeds but heavy background load
        from repro.apps.loadgen import LoadPattern

        loaded_cluster = linux_cluster(
            8, load_pattern=LoadPattern.STEPPED, max_load=0.8, seed=3,
            speeds=[sp2_blue_horizon(1).nodes[0].cpu_speed] * 8,
        )
        loaded = ExecutionSimulator(loaded_cluster).run(
            small_rm3d_trace, StaticSelector(ISPPartitioner())
        )
        assert loaded.total_runtime > idle.total_runtime

    def test_capacity_aware_beats_equal_on_loaded_cluster(self, small_rm3d_trace):
        """The Table 5 effect in miniature."""
        from repro.apps.loadgen import LoadPattern
        from repro.core import CapacityCalculator
        from repro.monitoring import ResourceMonitor

        cluster = linux_cluster(8, load_pattern=LoadPattern.STEPPED,
                                max_load=0.8, seed=5)
        monitor = ResourceMonitor(cluster, seed=6)
        monitor.sample_range(0.0, 32.0, 1.0)
        caps = CapacityCalculator(monitor).relative_capacities()

        equal = ExecutionSimulator(cluster).run(
            small_rm3d_trace, StaticSelector(EqualPartitioner())
        )
        adaptive = ExecutionSimulator(cluster, options=SimulatorOptions(capacities=caps)).run(
            small_rm3d_trace, StaticSelector(HeterogeneousPartitioner())
        )
        assert adaptive.total_runtime < equal.total_runtime


class TestCostAttribution:
    def test_comm_zero_on_single_proc(self, small_rm3d_trace):
        res = ExecutionSimulator(sp2_blue_horizon(1)).run(
            small_rm3d_trace, StaticSelector(ISPPartitioner())
        )
        assert res.total_comm_time == 0.0
        assert res.mean_imbalance_pct == pytest.approx(0.0)

    def test_regrid_cost_nonzero(self, small_rm3d_trace):
        res = ExecutionSimulator(sp2_blue_horizon(4)).run(
            small_rm3d_trace, StaticSelector(ISPPartitioner())
        )
        assert res.total_regrid_time > 0.0
        # the options knob scales the partitioning share of regrid time
        scaled = ExecutionSimulator(
            sp2_blue_horizon(4),
            options=SimulatorOptions(partition_time_scale=2.0),
        ).run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        assert scaled.total_regrid_time > res.total_regrid_time

    def test_patch_shuffle_charged_for_sfc(self, small_rm3d_trace):
        from repro.partitioners import SFCPartitioner

        cm = CostModel(seconds_per_patch_shuffle=0.0)
        cm_charged = CostModel(seconds_per_patch_shuffle=1e-2)
        free = ExecutionSimulator(sp2_blue_horizon(4), cost_model=cm).run(
            small_rm3d_trace, StaticSelector(SFCPartitioner())
        )
        charged = ExecutionSimulator(
            sp2_blue_horizon(4), cost_model=cm_charged
        ).run(small_rm3d_trace, StaticSelector(SFCPartitioner()))
        assert charged.total_regrid_time > free.total_regrid_time


class TestFaultTolerantReplay:
    def test_permanent_failure_recovers_natively(self, small_rm3d_trace):
        from repro.gridsys import FailureEvent, linux_cluster

        cluster = linux_cluster(4, seed=1)
        cluster.failures.add(FailureEvent(node_id=2, t_fail=0.0))
        sim = ExecutionSimulator(cluster)
        res = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        # The run completes, no coarse-step work is lost, and the failed
        # processor owns nothing once the failure is detected.
        clean = ExecutionSimulator(linux_cluster(4, seed=1)).run(
            small_rm3d_trace, StaticSelector(ISPPartitioner())
        )
        assert sum(r.coarse_steps for r in res.records) == sum(
            r.coarse_steps for r in clean.records
        )
        assert res.num_recoveries >= 1
        assert res.total_recovery_time > 0.0
        for rec in res.records[1:]:
            assert 2 not in rec.owners
            assert set(rec.owners) <= set(rec.live_procs)

    def test_fault_tolerance_disabled_stalls_until_repair(
        self, small_rm3d_trace
    ):
        from repro.gridsys import FailureEvent, sp2_blue_horizon

        cluster = sp2_blue_horizon(4)
        cluster.failures.add(FailureEvent(node_id=2, t_fail=0.0, t_recover=50.0))
        sim = ExecutionSimulator(cluster, options=SimulatorOptions(fault_tolerance=False))
        res = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        assert res.num_recoveries == 0
        clean = ExecutionSimulator(
            sp2_blue_horizon(4), options=SimulatorOptions(fault_tolerance=False)
        ).run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        assert res.total_runtime == pytest.approx(
            clean.total_runtime + 50.0, rel=1e-4
        )

    def test_fault_tolerance_disabled_permanent_failure_raises(
        self, small_rm3d_trace
    ):
        from repro.gridsys import FailureEvent, linux_cluster

        cluster = linux_cluster(4, seed=1)
        cluster.failures.add(FailureEvent(node_id=2, t_fail=0.0))
        sim = ExecutionSimulator(cluster, options=SimulatorOptions(fault_tolerance=False))
        with pytest.raises(RuntimeError, match="fault tolerance"):
            sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
