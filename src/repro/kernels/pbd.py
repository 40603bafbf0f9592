"""Worklist form of the pBD-ISP binary dissection.

The scalar reference (frozen in ``tests/reference/ref_pbd.py``) recurses
subcube-by-subcube; this kernel drives the same dissection from an
explicit worklist of (subcube, processor-range) items, so deep processor
trees cost no Python recursion frames and the per-node work is only the
axis scans themselves.  The cut decision
(:func:`~repro.partitioners.pbd_isp.choose_bisection_cut`) is the
reference's, so the two traversals place identical planes and the owner
cubes agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.partitioners.pbd_isp import choose_bisection_cut

__all__ = ["pbd_partition_cube_vector"]


def pbd_partition_cube_vector(cube: np.ndarray, num_procs: int) -> np.ndarray:
    """Owner cube for a recursive-bisection partition over ``num_procs``."""
    owners = np.zeros(cube.shape, dtype=int)
    full = (slice(0, cube.shape[0]), slice(0, cube.shape[1]),
            slice(0, cube.shape[2]))
    work: list[tuple[tuple[slice, slice, slice], int, int]] = [
        (full, 0, num_procs)
    ]
    while work:
        region, proc_lo, proc_hi = work.pop()
        nprocs = proc_hi - proc_lo
        sub = cube[region]
        if nprocs <= 1:
            owners[region] = proc_lo
            continue
        plan = choose_bisection_cut(sub, nprocs)
        if plan is None:
            owners[region] = proc_lo
            continue
        axis, cut, p1 = plan
        lo_region = list(region)
        hi_region = list(region)
        base = region[axis].start
        lo_region[axis] = slice(base, base + cut)
        hi_region[axis] = slice(base + cut, region[axis].stop)
        work.append((tuple(hi_region), proc_lo + p1, proc_hi))
        work.append((tuple(lo_region), proc_lo, proc_lo + p1))
    return owners
