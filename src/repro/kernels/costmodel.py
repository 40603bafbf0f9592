"""Vectorized execsim communication-cost kernel.

Numpy replacement for the per-adjacency-pair loop frozen in
``tests/reference/ref_costmodel.py`` (contract:
:func:`repro.execsim.costmodel.comm_cost_terms`): face areas are
computed per axis with masked ``np.minimum``, the per-processor byte
scatter is one ``np.bincount`` over both endpoint passes (owner-``i``
contributions in pair order, then owner-``j`` — the exact accumulation
order of the scalar loop, so the sums are bit-identical), neighbor-set
sizes come from a ``np.unique`` over packed owner pairs, and the
redundant-update volume is a sequential ``cumsum`` reduction (pairwise
``np.sum`` would drift from the scalar loop in the last ulp).
"""

from __future__ import annotations

import numpy as np

__all__ = ["comm_cost_terms_vector"]

#: face-area axis pairs: the two extents orthogonal to each adjacency axis
_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])


def comm_cost_terms_vector(
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
    """Comm-cost terms, bit-identical to the frozen scalar loop."""
    comm_bytes = np.zeros(num_procs)
    neighbor_count = np.zeros(num_procs)
    if i.size == 0:
        return comm_bytes, neighbor_count, 0.0
    oi = assignment[i]
    oj = assignment[j]
    cut = oi != oj
    if not cut.any():
        return comm_bytes, neighbor_count, 0.0

    ic = i[cut]
    jc = j[cut]
    axc = axis[cut]
    oic = oi[cut]
    ojc = oj[cut]

    face = np.empty(ic.size, dtype=float)
    for ax in range(3):
        sel = axc == ax
        if sel.any():
            o1, o2 = _OTHER_AXES[ax]
            a = np.minimum(shapes[ic[sel], o1], shapes[jc[sel], o1])
            b = np.minimum(shapes[ic[sel], o2], shapes[jc[sel], o2])
            face[sel] = a * b

    cells = shapes.prod(axis=1).astype(float)
    density = loads / np.maximum(cells, 1.0)
    vol = face * 0.5 * (density[ic] + density[jc]) * ghost_width
    byts = vol * bytes_per_comm_unit

    # One bincount over both endpoint passes: per processor the weights
    # accumulate sequentially in input order — all owner-i contributions
    # in pair order, then all owner-j — exactly the scalar loop's order.
    # (Two separate bincounts would group each pass into a partial sum
    # first and drift from the scalar result in the last ulp.)
    comm_bytes += np.bincount(
        np.concatenate([oic, ojc]),
        weights=np.concatenate([byts, byts]),
        minlength=num_procs,
    )

    # Distinct neighbor processors per processor, via packed owner pairs.
    lo = np.minimum(oic, ojc).astype(np.int64)
    hi = np.maximum(oic, ojc).astype(np.int64)
    packed = np.unique(lo * np.int64(num_procs) + hi)
    neighbor_count += np.bincount(
        (packed // num_procs).astype(np.intp), minlength=num_procs
    ).astype(float)
    neighbor_count += np.bincount(
        (packed % num_procs).astype(np.intp), minlength=num_procs
    ).astype(float)

    # Sequential reduction: matches the scalar loop's accumulation order.
    ghost_work = float(np.cumsum(face)[-1]) * ghost_width
    return comm_bytes, neighbor_count, ghost_work
