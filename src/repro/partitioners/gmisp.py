"""G-MISP and G-MISP+SP: variable-grain geometric multilevel inverse SFC.

The multilevel idea: start from coarse segments of the curve-linearized
composite grid and recursively split only the segments whose load exceeds
a fraction of the per-processor target.  The resulting *variable-grain*
sequence is fine exactly where the load is concentrated — cheap where the
domain is unrefined — and is then split contiguously:

- **G-MISP** closes segments greedily (fast, good balance);
- **G-MISP+SP** adds *sequence partitioning*: the exact minimal-bottleneck
  split over the variable-grain sequence, which buys the best load balance
  of the static schemes (Table 4: 11.3 % max imbalance).

The segmentation runs as the worklist kernel in :mod:`repro.kernels.gmisp`;
the recursion it replaced is frozen as the differential oracle in
``tests/reference/ref_gmisp.py``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.kernels.gmisp import variable_grain_bounds_vector
from repro.partitioners.base import Partitioner
from repro.partitioners.sequence import (
    greedy_sequence_partition,
    optimal_sequence_partition,
)
from repro.partitioners.units import CompositeUnits

__all__ = ["GMISPPartitioner", "GMISPSPPartitioner", "variable_grain_segments"]


def _force_min_segments(
    bounds: np.ndarray, prefix: np.ndarray, n: int, num_procs: int
) -> np.ndarray:
    """Split segments until there are at least ``min(num_procs, n)``.

    A coarse lightly-loaded curve can come out of the variable-grain pass
    with fewer segments than processors, which would strand processors
    empty no matter how the segments are dealt.  Repeatedly halve the
    heaviest splittable segment (first index on ties) until every
    processor can receive one.
    """
    want = min(num_procs, n)
    cuts = list(bounds) + [n]
    while len(cuts) - 1 < want:
        best = -1
        best_load = -1.0
        for k in range(len(cuts) - 1):
            if cuts[k + 1] - cuts[k] > 1:
                load = float(prefix[cuts[k + 1]] - prefix[cuts[k]])
                if load > best_load:
                    best = k
                    best_load = load
        cuts.insert(best + 1, (cuts[best] + cuts[best + 1]) // 2)
    return np.asarray(cuts[:-1], dtype=int)


def variable_grain_segments(
    loads: np.ndarray, num_procs: int, coarse: int, split_factor: float
) -> np.ndarray:
    """Segment the curve into variable-grain blocks.

    Returns the per-unit segment id (non-decreasing along the curve).
    Starting from blocks of ``coarse`` units, any block with load above
    ``split_factor * total / num_procs`` is recursively halved down to
    single units; heavily underspent curves are then force-split so at
    least ``min(num_procs, n)`` segments exist.
    """
    loads = np.asarray(loads, dtype=float)
    n = loads.size
    total = loads.sum()
    threshold = split_factor * total / num_procs if total > 0 else np.inf
    prefix = np.concatenate([[0.0], np.cumsum(loads)])
    obs.counter("kernels.calls", kernel="gmisp_segments").inc()
    bounds = variable_grain_bounds_vector(prefix, n, coarse, threshold)
    bounds = _force_min_segments(bounds, prefix, n, num_procs)
    seg_of_unit = np.zeros(n, dtype=int)
    seg_of_unit[bounds[1:]] = 1
    return np.cumsum(seg_of_unit)


class GMISPPartitioner(Partitioner):
    """Variable-grain multilevel ISP with greedy segment assignment."""

    name = "G-MISP"
    messages_per_neighbor = 4.0

    def __init__(self, coarse: int = 64, split_factor: float = 0.25) -> None:
        """``coarse``: initial block size in units; ``split_factor``: a block
        splits while its load exceeds this fraction of the per-processor
        average."""
        if coarse < 1:
            raise ValueError(f"coarse must be >= 1, got {coarse}")
        if split_factor <= 0:
            raise ValueError(f"split_factor must be positive, got {split_factor}")
        self.coarse = coarse
        self.split_factor = split_factor

    def _segment_loads(
        self, units: CompositeUnits, num_procs: int
    ) -> tuple[np.ndarray, np.ndarray]:
        seg = variable_grain_segments(
            units.loads, num_procs, self.coarse, self.split_factor
        )
        seg_loads = np.bincount(seg, weights=units.loads)
        return seg, seg_loads

    def _assign(
        self,
        units: CompositeUnits,
        num_procs: int,
        capacities: np.ndarray | None,
    ) -> np.ndarray:
        seg, seg_loads = self._segment_loads(units, num_procs)
        owners_of_seg = greedy_sequence_partition(seg_loads, num_procs)
        return owners_of_seg[seg]


class GMISPSPPartitioner(GMISPPartitioner):
    """G-MISP with exact sequence partitioning of the segment loads."""

    name = "G-MISP+SP"
    messages_per_neighbor = 4.0

    def _assign(
        self,
        units: CompositeUnits,
        num_procs: int,
        capacities: np.ndarray | None,
    ) -> np.ndarray:
        seg, seg_loads = self._segment_loads(units, num_procs)
        owners_of_seg = optimal_sequence_partition(seg_loads, num_procs)
        return owners_of_seg[seg]
