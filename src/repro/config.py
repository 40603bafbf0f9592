"""One composing entry point for the runtime's configuration surface.

Seven PRs of growth left the reproduction with configuration scattered
across constructors: the execution simulator accumulated keyword
arguments (``capacities``, ``partition_time_scale``, ``fault_tolerance``,
``incremental``), while fault tolerance split across three independent
knob bundles (:class:`~repro.resilience.recovery.FaultTolerance`,
:class:`~repro.resilience.detector.DetectorConfig`,
:class:`~repro.agents.message_center.DeliveryPolicy`) that callers had
to wire together by hand.  This module consolidates both:

- :class:`SimulatorOptions` is the execution simulator's tuning bundle.
  ``ExecutionSimulator(cluster, options=SimulatorOptions(...))`` is the
  one way to set those knobs.
- :class:`RuntimeConfig` composes the detector, delivery, checkpoint and
  simulator knobs into one document-shaped object with factory methods
  (:meth:`RuntimeConfig.fault_tolerance`,
  :meth:`RuntimeConfig.build_simulator`,
  :meth:`RuntimeConfig.build_message_center`,
  :meth:`RuntimeConfig.build_detector`, :meth:`RuntimeConfig.build_server`)
  so one object configures a whole run.

Both classes are part of the stable public surface (:mod:`repro.api`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.agents.message_center import DeliveryPolicy
from repro.resilience.checkpoint import CheckpointCostModel
from repro.resilience.detector import DetectorConfig
from repro.resilience.recovery import FaultTolerance

__all__ = ["SimulatorOptions", "LiveObsOptions", "RuntimeConfig"]


@dataclass(frozen=True, slots=True)
class LiveObsOptions:
    """Knobs for the serving runtime's live telemetry plane.

    The default is disabled and zero-cost: the server gets the shared
    no-op flight recorder, no SLO tracker and no exporter thread (the
    ``metrics``/``health`` wire verbs still answer — the ``serve.*``
    counter registry is part of the server itself, not of this layer).
    ``enabled=True`` turns on the flight recorder and the SLO tracker;
    ``snapshot_path`` additionally starts the periodic JSONL snapshot
    exporter.  See :mod:`repro.obs.live`.
    """

    #: master switch for the flight recorder + SLO tracker + exporter
    enabled: bool = False
    #: when set (and enabled), append one JSONL metrics snapshot here
    #: every ``snapshot_interval_s``
    snapshot_path: str | None = None
    #: seconds between periodic snapshots
    snapshot_interval_s: float = 5.0
    #: ring capacity of the flight recorder (last N serve events)
    flight_capacity: int = 256
    #: when set, the flight recorder dumps here on shutdown/crash
    flight_dump_path: str | None = None
    #: latency objective: at most ``slo_latency_budget`` of requests may
    #: take longer than this many seconds
    slo_latency_target_s: float = 60.0
    slo_latency_budget: float = 0.05
    #: shed objective: at most this fraction of admissions may be shed
    #: for load (queue-full / shutting-down)
    slo_shed_budget: float = 0.05
    #: sliding event-count windows for burn-rate alerting (short = fast
    #: signal, long = sustained signal; both must burn to alert)
    slo_short_window: int = 32
    slo_long_window: int = 256
    #: burn-rate (error rate / budget) that fires an alert
    slo_burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.snapshot_interval_s <= 0:
            raise ValueError(
                f"snapshot_interval_s must be > 0, "
                f"got {self.snapshot_interval_s}"
            )
        if self.flight_capacity < 1:
            raise ValueError(
                f"flight_capacity must be >= 1, got {self.flight_capacity}"
            )

    def build_slo_tracker(self):
        """A :class:`~repro.obs.live.SloTracker` with these objectives."""
        from repro.obs.live import SloTracker

        return SloTracker(
            latency_target_s=self.slo_latency_target_s,
            latency_budget=self.slo_latency_budget,
            shed_budget=self.slo_shed_budget,
            short_window=self.slo_short_window,
            long_window=self.slo_long_window,
            burn_threshold=self.slo_burn_threshold,
        )

    def build_flight_recorder(self, *, wall_clock=None):
        """A :class:`~repro.obs.live.FlightRecorder` (the shared null
        recorder when disabled).

        ``wall_clock`` overrides the dump-header timestamp source — the
        serving runtime passes its own injected clock through, so a
        simulated run's flight dump carries virtual time.
        """
        from repro.obs.live import NULL_FLIGHT, FlightRecorder

        if not self.enabled:
            return NULL_FLIGHT
        return FlightRecorder(self.flight_capacity, wall_clock=wall_clock)


@dataclass(frozen=True, slots=True)
class SimulatorOptions:
    """Tuning bundle for :class:`~repro.execsim.simulator.ExecutionSimulator`.

    Collects what used to be a growing keyword list into one value:
    ``ExecutionSimulator(cluster, options=SimulatorOptions(num_procs=8))``.
    Field defaults match the simulator's historical keyword defaults, so
    ``SimulatorOptions()`` is behavior-identical to passing nothing.
    """

    #: processors to simulate (``None``: every node in the cluster)
    num_procs: int | None = None
    #: communication/compute cost model (``None``: the paper-fit default)
    cost_model: Any = None
    #: relative per-processor capacity weights for capacity-aware
    #: partitioning (``None``: homogeneous)
    capacities: Any = None
    #: multiplier on modeled repartitioning seconds
    partition_time_scale: float = 1.0
    #: ``None`` auto-enables recovery when the cluster carries failures;
    #: a :class:`~repro.resilience.recovery.FaultTolerance` tunes it;
    #: ``False`` disables recovery entirely
    fault_tolerance: Any = None
    #: reuse workload/unit arrays across regrid intervals (bit-identical
    #: to full recomputation; disable only to measure the benefit)
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.partition_time_scale < 0:
            raise ValueError(
                f"partition_time_scale must be >= 0, "
                f"got {self.partition_time_scale}"
            )


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """The one composing entry point for runtime configuration.

    Bundles the failure detector lease (:class:`DetectorConfig`), the
    message-center link policy (:class:`DeliveryPolicy`), the checkpoint
    cost model (:class:`CheckpointCostModel`) and the simulator tuning
    (:class:`SimulatorOptions`), plus the recovery knobs that previously
    lived only on :class:`FaultTolerance`.  Factory methods build the
    concrete runtime objects so the pieces stay mutually consistent —
    e.g. the simulator built here replays failures with exactly the
    detector lease the agent layer polls with.
    """

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    delivery: DeliveryPolicy = field(default_factory=DeliveryPolicy)
    checkpoint: CheckpointCostModel = field(default_factory=CheckpointCostModel)
    simulator: SimulatorOptions = field(default_factory=SimulatorOptions)
    live_obs: LiveObsOptions = field(default_factory=LiveObsOptions)
    #: recovery attempts tolerated within one regrid interval before a
    #: run is declared livelocked
    max_recoveries_per_interval: int = 32
    #: when set, checkpoints are persisted crash-consistently here
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_recoveries_per_interval < 1:
            raise ValueError(
                f"max_recoveries_per_interval must be >= 1, "
                f"got {self.max_recoveries_per_interval}"
            )

    # -- factories ---------------------------------------------------------------

    def fault_tolerance(self) -> FaultTolerance:
        """The composed :class:`FaultTolerance` bundle for this config."""
        return FaultTolerance(
            detector=self.detector,
            checkpoint=self.checkpoint,
            max_recoveries_per_interval=self.max_recoveries_per_interval,
            checkpoint_dir=self.checkpoint_dir,
        )

    def simulator_options(self) -> SimulatorOptions:
        """Simulator options with this config's fault tolerance folded in.

        An explicit ``simulator.fault_tolerance`` wins; the default
        ``None`` is replaced by the composed bundle so failure replay
        uses this config's detector lease and checkpoint model.
        """
        if self.simulator.fault_tolerance is not None:
            return self.simulator
        return replace(self.simulator, fault_tolerance=self.fault_tolerance())

    def build_simulator(self, cluster):
        """An :class:`~repro.execsim.simulator.ExecutionSimulator` on
        ``cluster`` configured by this bundle."""
        from repro.execsim.simulator import ExecutionSimulator

        return ExecutionSimulator(cluster, options=self.simulator_options())

    def build_message_center(self, **kwargs):
        """A :class:`~repro.agents.message_center.MessageCenter` using
        this config's :class:`DeliveryPolicy`."""
        from repro.agents.message_center import MessageCenter

        return MessageCenter(self.delivery, **kwargs)

    def build_detector(self, cluster, **kwargs):
        """A :class:`~repro.resilience.detector.FailureDetector` on
        ``cluster`` using this config's :class:`DetectorConfig`."""
        from repro.resilience.detector import FailureDetector

        return FailureDetector(cluster, self.detector, **kwargs)

    def build_server(self, **kwargs):
        """A :class:`~repro.serve.server.ScenarioServer` whose retry
        backoff ladder comes from this config's :class:`DeliveryPolicy`
        and whose live telemetry plane follows :attr:`live_obs`."""
        from repro.serve.server import ScenarioServer

        kwargs.setdefault("retry_policy", self.delivery)
        kwargs.setdefault("live_obs", self.live_obs)
        return ScenarioServer(**kwargs)
