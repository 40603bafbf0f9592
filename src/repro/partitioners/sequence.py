"""One-dimensional sequence partitioning.

Splitting a curve-ordered load sequence into ``p`` contiguous segments is
the final step of every ISP-family partitioner.  Two algorithms:

- :func:`greedy_sequence_partition` — single pass filling each segment to
  the average; fast, near-optimal on fine-grained loads.
- :func:`optimal_sequence_partition` — exact minimal-bottleneck split via
  binary search on the bottleneck with a greedy feasibility check
  (O(n log(total/min_gap))).  This is the "SP" in G-MISP+SP: the paper's
  sequence-partitioning refinement that buys the best load balance.

Both have capacity-weighted variants for heterogeneous targets.

The greedy and weighted splits and the boundary → owner expansion run
as vectorized kernels in :mod:`repro.kernels.sequence`; this module owns
input validation and the exact bisection driver.  The scalar loops the
kernels replaced live on, frozen, as the differential oracle in
``tests/reference/ref_sequence.py`` (checked by ``tests/test_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.kernels.sequence import (
    boundaries_to_assignment_vector,
    greedy_owners_vector,
    weighted_owners_vector,
)

__all__ = [
    "greedy_sequence_partition",
    "optimal_sequence_partition",
    "weighted_sequence_partition",
    "segment_loads",
    "boundaries_to_assignment",
]


def _tick(kernel: str) -> None:
    """Count one kernel dispatch."""
    obs.counter("kernels.calls", kernel=kernel).inc()


def _check_inputs(loads: np.ndarray, p: int) -> np.ndarray:
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 1 or loads.size == 0:
        raise ValueError("loads must be a non-empty 1-D array")
    if (loads < 0).any():
        raise ValueError("loads must be non-negative")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return loads


def boundaries_to_assignment(boundaries: np.ndarray, n: int, p: int) -> np.ndarray:
    """Segment boundaries (p+1 prefix cut points) → per-item owner array."""
    _tick("boundaries_to_assignment")
    return boundaries_to_assignment_vector(boundaries, n, p)


def segment_loads(loads: np.ndarray, assignment: np.ndarray, p: int) -> np.ndarray:
    """Total load per segment/processor."""
    return np.bincount(np.asarray(assignment), weights=loads, minlength=p)


def greedy_sequence_partition(loads: np.ndarray, p: int) -> np.ndarray:
    """Greedy split: close each segment once it reaches the running target.

    Returns the per-item owner array.  Guarantees every processor gets a
    contiguous range, all items are assigned, and — when there are at
    least ``p`` items — no processor is left empty: a segment also closes
    when the remaining items are only just enough to give every remaining
    processor one.
    """
    loads = _check_inputs(loads, p)
    _tick("greedy")
    return greedy_owners_vector(loads, p)


def _feasible(prefix: np.ndarray, p: int, bottleneck: float) -> np.ndarray | None:
    """Greedy check: can the sequence split into <= p segments of sum <=
    bottleneck?  Returns boundaries if yes else None."""
    n = prefix.size - 1
    boundaries = [0]
    start = 0
    for _ in range(p):
        if start == n:
            break
        # furthest end with prefix[end]-prefix[start] <= bottleneck
        limit = prefix[start] + bottleneck
        end = int(np.searchsorted(prefix, limit, side="right")) - 1
        if end <= start:
            # single item exceeds bottleneck -> infeasible at this bottleneck
            return None
        boundaries.append(end)
        start = end
    if start < n:
        return None
    while len(boundaries) < p + 1:
        boundaries.append(n)
    out = np.asarray(boundaries, dtype=int)
    if n >= p:
        # The greedy fill packs left and can leave trailing segments
        # empty.  Cap boundary k at n - p + k: late cut points slide left
        # just enough to hand every trailing segment one item.  Each
        # donated item's load is <= max(load) <= any feasible bottleneck,
        # so feasibility (and the optimal bottleneck) is preserved.
        out = np.minimum(out, n - p + np.arange(p + 1))
    return out


def optimal_sequence_partition(
    loads: np.ndarray, p: int, *, tol: float = 1e-9
) -> np.ndarray:
    """Exact minimal-bottleneck contiguous partition (owner array).

    Binary search over the bottleneck value between ``max(load)`` (and the
    average) and ``total``; the greedy feasibility check is optimal for
    this decision problem.  The final boundaries are recomputed at the
    smallest feasible bottleneck found.
    """
    loads = _check_inputs(loads, p)
    n = loads.size
    prefix = np.concatenate([[0.0], np.cumsum(loads)])
    total = prefix[-1]
    if p == 1 or total == 0.0:
        return np.zeros(n, dtype=int) if p == 1 else greedy_sequence_partition(loads, p)

    lo = max(loads.max(), total / p)
    hi = total
    best = _feasible(prefix, p, hi)
    if best is None:  # pragma: no cover - hi == total is always feasible
        raise AssertionError("full-range bottleneck must be feasible")
    # Binary search on a continuous bottleneck; tolerance relative to total.
    eps = max(tol * total, 1e-15)
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        b = _feasible(prefix, p, mid)
        if b is None:
            lo = mid
        else:
            hi = mid
            best = b
    return boundaries_to_assignment(best, n, p)


def weighted_sequence_partition(
    loads: np.ndarray, p: int, capacities: np.ndarray
) -> np.ndarray:
    """Contiguous split with per-processor targets ∝ ``capacities``.

    Implements the paper's system-sensitive distribution: "the workload is
    distributed proportionately" to relative capacities (Section 4.6).
    Cut points are chosen so each processor's cumulative share tracks the
    cumulative capacity fraction.  Targets already met by the load
    *preceding* an item are skipped before the item is assigned, so a
    zero-capacity processor (duplicate cumulative target) receives no
    items at all.
    """
    loads = _check_inputs(loads, p)
    capacities = np.asarray(capacities, dtype=float)
    if capacities.shape != (p,):
        raise ValueError(f"capacities shape {capacities.shape}, expected ({p},)")
    if (capacities < 0).any() or capacities.sum() <= 0:
        raise ValueError("capacities must be non-negative with positive sum")
    n = loads.size
    total = loads.sum()
    if total == 0.0:
        # Degenerate: spread items evenly.
        return (np.arange(n) * p // max(n, 1)).astype(int)
    _tick("weighted")
    return weighted_owners_vector(loads, p, capacities, total)
