"""Cost model of a partitioned SAMR step on a simulated machine.

Besides the :class:`CostModel` constants, this module owns the
per-regrid-interval *communication cost terms*: boundary-crossing ghost
volume, per-processor neighbor-set sizes, and the redundant-update
(AMR-efficiency) term, all derived from the unit adjacency arrays and the
owner assignment.  They are computed by the numpy scatter/bincount
kernel in :mod:`repro.kernels.costmodel`; the per-pair loop it replaced
is frozen as the differential oracle in
``tests/reference/ref_costmodel.py`` and proven bit-identical to the
kernel by ``tests/test_execsim_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.kernels.costmodel import comm_cost_terms_vector

__all__ = ["CostModel", "comm_cost_terms", "per_step_comm_times"]


@dataclass(frozen=True, slots=True)
class CostModel:
    """Constants translating partition geometry into seconds.

    All volumes are in composite-load units (one unit = one cell update of
    one solver sweep); the load-density weighting inside the communication
    metric already accounts for refinement depth.
    """

    #: bytes exchanged per unit of cut-surface communication volume
    bytes_per_comm_unit: float = 10.0
    #: ghost layers exchanged per solver sweep
    ghost_width: float = 2.0
    #: per-neighbor message latency charged per coarse step (seconds)
    #: (subsumes the per-sweep small messages of subcycled levels)
    latency_per_neighbor: float = 1.2e-3
    #: bytes moved per unit of migrated load at a repartition
    bytes_per_migrated_load: float = 4.0
    #: seconds of bookkeeping per ownership fragment at a repartition
    seconds_per_fragment: float = 2.0e-4
    #: seconds per patch reshuffled by a full-redistribution (patch-based)
    #: partitioner at each regrid
    seconds_per_patch_shuffle: float = 1.0e-3
    #: intra-hierarchy redundant updates as a fraction of useful work
    #: (clustering padding + patch-boundary ghosts; AMR-efficiency term)
    intra_ghost_factor: float = 0.0105
    #: fraction of ghost communication hidden under computation.  0 models
    #: fully synchronous exchange; the paper's "latency-tolerant
    #: communication" mechanism (a Section 3.5 policy, used by the RM3D
    #: kernel on the workstation cluster) overlaps most of it.
    comm_overlap: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.comm_overlap <= 1.0):
            raise ValueError(
                f"comm_overlap must be in [0, 1], got {self.comm_overlap}"
            )
        for name in (
            "bytes_per_comm_unit",
            "ghost_width",
            "latency_per_neighbor",
            "bytes_per_migrated_load",
            "seconds_per_fragment",
            "seconds_per_patch_shuffle",
            "intra_ghost_factor",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def comm_cost_terms(
    i: np.ndarray,
    j: np.ndarray,
    axis: np.ndarray,
    assignment: np.ndarray,
    shapes: np.ndarray,
    loads: np.ndarray,
    num_procs: int,
    ghost_width: float,
    bytes_per_comm_unit: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-proc comm bytes, neighbor counts and ghost work of one partition.

    For every cut face (adjacent units with different owners) the
    exchanged volume is the face area scaled by the mean load density of
    the two units and the ghost width; the bytes are charged to *both*
    endpoint processors (send + receive).  ``neighbor_count[p]`` is the
    number of distinct processors ``p`` shares at least one cut face
    with.  ``ghost_work`` is the unweighted geometric redundant-update
    volume (cut face area times ghost width).

    Accumulation order is part of the contract (it fixes the float sums
    bit-for-bit): all owner-``i`` byte contributions are added in pair
    order, then all owner-``j`` contributions, and ``ghost_work`` is a
    sequential sum over cut pairs in pair order.
    """
    obs.counter("kernels.calls", kernel="costmodel").inc()
    return comm_cost_terms_vector(
        i, j, axis, assignment, shapes, loads, num_procs,
        ghost_width, bytes_per_comm_unit,
    )


def per_step_comm_times(
    partition, cost: CostModel, bandwidth: float
) -> tuple[np.ndarray, float]:
    """Per-processor ghost-communication seconds for one coarse step.

    Returns ``(comm_per_step, ghost_work)`` where ``ghost_work`` is the
    partitioner-dependent redundant-update volume (AMR-efficiency
    accounting) — callers add the hierarchy-intrinsic term themselves.
    The communication model: cut-face ghost volume (load-density weighted)
    over the link bandwidth, plus per-neighbor message latency scaled by
    the partitioner's message-aggregation factor.
    """
    num_procs = partition.num_procs
    units = partition.units
    i, j, axis = units.adjacency_arrays()
    comm_bytes, neighbor_count, ghost_work = comm_cost_terms(
        i,
        j,
        axis,
        partition.assignment,
        units.unit_shapes(),
        units.loads,
        num_procs,
        cost.ghost_width,
        cost.bytes_per_comm_unit,
    )
    msg_factor = float(partition.params.get("messages_per_neighbor", 3.0))
    comm_per_step = (
        comm_bytes / bandwidth
        + cost.latency_per_neighbor * neighbor_count * msg_factor
    )
    return comm_per_step, ghost_work
