"""pBD-ISP: p-way binary dissection with inverse SFC ordering.

Recursive geometric bisection of the unit lattice: the processor group is
halved, the lattice box is cut by an axis-aligned plane placing load in
proportion to the two halves, and recursion continues until every
processor owns one rectangular block.  Compact rectangular subdomains give
the lowest communication volume and data migration of the suite — at the
price of the worst load balance (Table 4: 35 % max imbalance), because cut
planes are constrained to whole lattice slices.

The cut decision lives here (:func:`choose_bisection_cut`); the
dissection itself runs as the worklist kernel in :mod:`repro.kernels.pbd`.
The recursion it replaced is frozen as the differential oracle in
``tests/reference/ref_pbd.py``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.partitioners.base import Partitioner
from repro.partitioners.units import CompositeUnits

__all__ = ["PBDISPPartitioner", "choose_bisection_cut", "pbd_partition_cube"]


def choose_bisection_cut(
    cube: np.ndarray, nprocs: int
) -> tuple[int, int, int] | None:
    """Best axis-aligned cut for splitting ``cube`` across ``nprocs``.

    Returns ``(axis, cut, p1)`` — cut the cube before slice ``cut`` of
    ``axis`` and give the low side ``p1`` processors — or ``None`` when no
    axis can be cut.  When the cube holds at least one cell per processor,
    cut positions are clamped so each side keeps enough whole slices for
    its processor share (no processor can be starved of cells by a
    skewed load profile).
    """
    p1 = nprocs // 2
    frac = p1 / nprocs
    ncells = cube.size
    total = float(cube.sum())
    best: tuple[float, int, int] | None = None  # (error, axis, cut)
    for axis in range(3):
        length = cube.shape[axis]
        if length < 2:
            continue
        slab = ncells // length  # cells per whole slice of this axis
        cmin, cmax = 1, length - 1
        if ncells >= nprocs:
            cmin = max(cmin, -(-p1 // slab))
            cmax = min(cmax, length - (-(-(nprocs - p1) // slab)))
            if cmin > cmax:
                continue
        other = tuple(a for a in range(3) if a != axis)
        cums = np.cumsum(cube.sum(axis=other))
        if total <= 0:
            cut = min(max(int(round(length * frac)), cmin), cmax)
            err = 0.0
        else:
            target = frac * total
            idx = int(np.searchsorted(cums, target))
            candidates = [c for c in (idx, idx + 1) if cmin <= c <= cmax]
            if not candidates:
                candidates = [min(max(idx, cmin), cmax)]
            cut = min(candidates, key=lambda c: abs(float(cums[c - 1]) - target))
            err = abs(float(cums[cut - 1]) - target)
        if best is None or err < best[0]:
            best = (err, axis, cut)
    if best is None:
        # Either a 1x1x1 cube, or the per-side slice windows closed on
        # every axis: halve the longest cuttable axis and split the
        # processor group in proportion to the cells on each side.
        length = max(cube.shape)
        if length < 2:
            return None
        axis = cube.shape.index(length)  # pragma: no cover - defensive
        cut = length // 2  # pragma: no cover
        lo_cells = cut * (ncells // length)  # pragma: no cover
        p1 = int(round(nprocs * lo_cells / ncells))  # pragma: no cover
        p1 = min(  # pragma: no cover
            max(p1, max(1, nprocs - (ncells - lo_cells))),
            min(nprocs - 1, lo_cells),
        )
        return axis, cut, p1  # pragma: no cover
    return best[1], best[2], p1


def pbd_partition_cube(cube: np.ndarray, num_procs: int) -> np.ndarray:
    """Owner cube of the p-way binary dissection."""
    from repro.kernels.pbd import pbd_partition_cube_vector

    obs.counter("kernels.calls", kernel="pbd").inc()
    return pbd_partition_cube_vector(cube, num_procs)


class PBDISPPartitioner(Partitioner):
    """Recursive coordinate bisection over the unit lattice."""

    name = "pBD-ISP"
    messages_per_neighbor = 1.0

    def _assign(
        self,
        units: CompositeUnits,
        num_procs: int,
        capacities: np.ndarray | None,
    ) -> np.ndarray:
        # Work on the lattice-ordered load cube, then map back to curve order.
        lat_loads = np.empty(len(units))
        lat_loads[units.lattice_index] = units.loads
        cube = lat_loads.reshape(units.grid_shape)
        owners_cube = pbd_partition_cube(cube, num_procs)
        lat_owner = owners_cube.reshape(-1)
        return lat_owner[units.lattice_index]
