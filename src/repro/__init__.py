"""repro — a reproduction of Pragma (Parashar & Hariri, IPDPS 2002).

Pragma is an adaptive runtime infrastructure for grid applications.  This
package reimplements the paper's four components — system characterization
(:mod:`repro.monitoring`), performance functions (:mod:`repro.perf`),
application characterization (:mod:`repro.policy.octant`), and the agent
based control network (:mod:`repro.agents`) — plus every substrate the
paper's evaluation depends on: a structured AMR simulator
(:mod:`repro.amr`), synthetic adaptive applications (:mod:`repro.apps`),
a grid/cluster simulator (:mod:`repro.gridsys`), the SAMR partitioner
suite (:mod:`repro.partitioners`), and a discrete-event execution
simulator (:mod:`repro.execsim`).  The pipeline itself is observable
through :mod:`repro.obs` (metrics, spans, run reports), off by default.

The evaluation surface — experiments, ablations, chaos configurations —
runs through the scenario sweep engine (:mod:`repro.sweep`): a uniform
:class:`Scenario` protocol, content-addressed result caching, and a
parallel :class:`SweepRunner` behind ``python -m repro sweep``.

Batch sweeps answer one question and exit; the serving runtime
(:mod:`repro.serve`, ``python -m repro serve``) keeps the same engine
resident — bounded priority admission, request coalescing, batched
dispatch and explicit load shedding behind :class:`ServerHandle`.

The stable public surface is the :mod:`repro.api` facade, snapshotted
in ``tests/golden/api_surface.json``; its names are re-exported here:

>>> from repro import Pragma, MetaPartitioner, run_sweep, ServerHandle
"""

from repro.api import (
    HealthStatus,
    LiveObsOptions,
    MetaPartitioner,
    Pragma,
    PragmaRuntime,
    RuntimeConfig,
    Scenario,
    ScenarioServer,
    ServerHandle,
    SimulatorOptions,
    SweepRunner,
    run_sweep,
)

__version__ = "2.0.0"

__all__ = [
    "__version__",
    "Pragma",
    "PragmaRuntime",
    "MetaPartitioner",
    "Scenario",
    "SweepRunner",
    "run_sweep",
    "ScenarioServer",
    "ServerHandle",
    "RuntimeConfig",
    "SimulatorOptions",
    "LiveObsOptions",
    "HealthStatus",
    "amr",
    "sfc",
    "apps",
    "gridsys",
    "monitoring",
    "perf",
    "partitioners",
    "policy",
    "agents",
    "execsim",
    "core",
    "obs",
    "sweep",
    "resilience",
    "experiments",
    "api",
    "config",
    "serve",
]
