"""The options surface that replaced the legacy simulator keywords.

``ExecutionSimulator`` is configured through one composed
:class:`repro.config.SimulatorOptions` value; the old per-keyword
spellings (``capacities``, ``partition_time_scale``, ``fault_tolerance``,
``incremental``) were removed in 2.0.  These tests pin how
:class:`repro.config.RuntimeConfig` folds fault tolerance into those
options.
"""

from __future__ import annotations

from repro.config import RuntimeConfig, SimulatorOptions
from repro.gridsys import sp2_blue_horizon
from repro.resilience import FaultTolerance


def test_runtime_config_composes_fault_tolerance():
    """RuntimeConfig folds its composed FaultTolerance into the simulator."""
    config = RuntimeConfig()
    ft = config.fault_tolerance()
    assert isinstance(ft, FaultTolerance)
    sim = config.build_simulator(sp2_blue_horizon(4))
    assert sim.fault_tolerance is not None
    assert sim.fault_tolerance.detector == config.detector


def test_runtime_config_respects_explicit_simulator_ft():
    """An explicit SimulatorOptions.fault_tolerance is not overwritten."""
    ft = FaultTolerance()
    config = RuntimeConfig(simulator=SimulatorOptions(fault_tolerance=ft))
    sim = config.build_simulator(sp2_blue_horizon(4))
    assert sim.fault_tolerance is ft
