"""Composite workload maps.

Domain-based SAMR partitioners (the ISP family) do not partition patches;
they partition the *composite grid*: the base domain where every base cell
carries the total cost of its whole refinement column — all fine cells that
project onto it, times their time-refinement subcycling factor.  This
module builds that map from a :class:`~repro.amr.hierarchy.GridHierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.kernels.workload import composite_values_vector

__all__ = ["WorkloadMap", "composite_load_map", "update_composite_load_map"]

#: patch count from which the batched scatter kernel is used; below it,
#: contiguous slice adds are already optimal and the ragged index
#: arithmetic would only add overhead.
VECTOR_MIN_PATCHES = 32


@dataclass(slots=True)
class WorkloadMap:
    """Per-base-cell computational load of one coarse time step."""

    domain: Box
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"domain shape {self.domain.shape}"
            )
        if (self.values < 0).any():
            raise ValueError("workload values must be non-negative")

    @property
    def total(self) -> float:
        """Total load over the domain."""
        return float(self.values.sum())

    def box_load(self, box: Box) -> float:
        """Total load inside ``box`` (expressed in base index space)."""
        inter = box.intersection(self.domain)
        if inter is None:
            return 0.0
        return float(self.values[inter.slices(self.domain.lo)].sum())

    def flat_loads(self, order: np.ndarray) -> np.ndarray:
        """Load per base cell in a caller-supplied linearization ``order``.

        ``order`` is an integer array of flattened C-order cell indices
        (e.g. a space-filling-curve permutation); the result aligns with it.
        """
        flat = self.values.reshape(-1)
        return flat[order]


def composite_load_map(hierarchy: GridHierarchy) -> WorkloadMap:
    """Project a hierarchy's load onto the base grid.

    A patch at level ``l`` with cumulative spatial refinement ``R``
    contributes ``load_per_cell * R`` per *fine* cell per coarse step
    (``R`` time subcycles), i.e. up to ``load_per_cell * R^4`` per fully
    covered base cell in 3-D.  Partial coverage at unaligned patch edges is
    handled exactly with per-axis overlap counts.

    The input picks the path: from :data:`VECTOR_MIN_PATCHES` patches up
    the patch-batched kernel in :mod:`repro.kernels.workload` runs;
    below that, the per-patch loop here is faster, because slice adds
    over a few large blocks are already optimal.  Both paths are proven
    bit-identical to the frozen oracle ``tests/reference/ref_workload.py``
    by the differential suite.
    """
    domain = hierarchy.domain
    obs.counter("kernels.calls", kernel="workload").inc()
    if hierarchy.num_patches >= VECTOR_MIN_PATCHES:
        return WorkloadMap(
            domain=domain, values=composite_values_vector(hierarchy)
        )
    values = np.zeros(domain.shape, dtype=float)

    for lvl in hierarchy.levels:
        ratio = hierarchy.cumulative_ratio(lvl.index)
        subcycles = ratio  # factor-r space-*time* refinement
        for patch in lvl:
            weight = patch.load_per_cell * subcycles
            if ratio == 1:
                sl = patch.box.slices(domain.lo)
                values[sl] += weight
                continue
            coarse = patch.box.coarsen(ratio)
            counts = [
                _axis_overlap(patch.box.lo[a], patch.box.hi[a], coarse.lo[a],
                              coarse.hi[a], ratio)
                for a in range(3)
            ]
            block = (
                counts[0][:, None, None]
                * counts[1][None, :, None]
                * counts[2][None, None, :]
            ).astype(float)
            clipped = coarse.intersection(domain)
            if clipped is None:
                continue
            # Slice the block to the clipped region relative to `coarse`.
            bsl = clipped.slices(coarse.lo)
            values[clipped.slices(domain.lo)] += weight * block[bsl]
    return WorkloadMap(domain=domain, values=values)


def update_composite_load_map(
    old: WorkloadMap,
    hierarchy: GridHierarchy,
    dirty_mask: np.ndarray,
) -> WorkloadMap:
    """Incrementally update ``old`` to reflect ``hierarchy``.

    ``dirty_mask`` (from :func:`repro.amr.diff.diff_hierarchies`) marks
    the base cells whose composite load may have changed; those cells are
    zeroed and re-accumulated from every patch of the *new* hierarchy
    whose footprint touches them, in the same (level, patch) order as a
    full recompute.  Clean cells keep their previous values — by the
    diff's construction every patch covering them is unchanged and in
    unchanged relative order, so the result is **bit-identical** to
    ``composite_load_map(hierarchy)`` (proven by the incremental
    differential suite).
    """
    domain = hierarchy.domain
    if old.domain != domain:
        raise ValueError("incremental update requires an unchanged domain")
    if dirty_mask.shape != old.values.shape:
        raise ValueError(
            f"dirty_mask shape {dirty_mask.shape} does not match "
            f"map shape {old.values.shape}"
        )
    obs.counter("kernels.calls", kernel="workload_incremental").inc()
    values = old.values.copy()
    values[dirty_mask] = 0.0

    for lvl in hierarchy.levels:
        ratio = hierarchy.cumulative_ratio(lvl.index)
        subcycles = ratio
        for patch in lvl:
            weight = patch.load_per_cell * subcycles
            if ratio == 1:
                sl = patch.box.slices(domain.lo)
                local = dirty_mask[sl]
                if local.any():
                    values[sl][local] += weight
                continue
            coarse = patch.box.coarsen(ratio)
            clipped = coarse.intersection(domain)
            if clipped is None:
                continue
            sl = clipped.slices(domain.lo)
            local = dirty_mask[sl]
            if not local.any():
                continue
            counts = [
                _axis_overlap(patch.box.lo[a], patch.box.hi[a], coarse.lo[a],
                              coarse.hi[a], ratio)
                for a in range(3)
            ]
            block = (
                counts[0][:, None, None]
                * counts[1][None, :, None]
                * counts[2][None, None, :]
            ).astype(float)
            bsl = clipped.slices(coarse.lo)
            values[sl][local] += (weight * block[bsl])[local]
    return WorkloadMap(domain=domain, values=values)


def _axis_overlap(flo: int, fhi: int, clo: int, chi: int, ratio: int) -> np.ndarray:
    """Fine-cell count of ``[flo, fhi)`` inside each coarse cell of ``[clo, chi)``."""
    n = chi - clo
    idx = np.arange(clo, chi)
    starts = np.maximum(idx * ratio, flo)
    ends = np.minimum((idx + 1) * ratio, fhi)
    return np.maximum(ends - starts, 0).astype(np.int64).reshape(n)
