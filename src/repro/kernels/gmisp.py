"""Vectorized variable-grain segmentation for G-MISP / G-MISP+SP.

The scalar reference (frozen in ``tests/reference/ref_gmisp.py``)
recurses block-by-block (split while a block's load
exceeds the threshold); this kernel processes the whole *generation* of
blocks at once: one boolean mask decides every split of the round, so
the Python-level work is ``O(log coarse)`` rounds instead of one call
per block.  The split decision of an individual block — ``load >
threshold and size > 1``, children cut at ``(lo + hi) // 2`` — is
order-independent, so the resulting segment-boundary *set* is identical
to the recursion's and the two agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["variable_grain_bounds_vector"]


def variable_grain_bounds_vector(
    prefix: np.ndarray, n: int, coarse: int, threshold: float
) -> np.ndarray:
    """Segment start bounds (sorted, without the trailing ``n`` sentinel).

    ``prefix`` is the length ``n + 1`` inclusive load prefix (leading
    zero); blocks of ``coarse`` units split while their load
    ``prefix[hi] - prefix[lo]`` exceeds ``threshold`` and they hold more
    than one unit.
    """
    lo = np.arange(0, n, coarse)
    hi = np.minimum(lo + coarse, n)
    done_lo: list[np.ndarray] = []
    while lo.size:
        split = (prefix[hi] - prefix[lo] > threshold) & (hi - lo > 1)
        if not split.any():
            done_lo.append(lo)
            break
        done_lo.append(lo[~split])
        slo, shi = lo[split], hi[split]
        mid = (slo + shi) // 2
        lo = np.concatenate([slo, mid])
        hi = np.concatenate([mid, shi])
    if not done_lo:  # pragma: no cover - n == 0 is rejected upstream
        return np.zeros(0, dtype=int)
    bounds = np.concatenate(done_lo)
    bounds.sort()
    return bounds
