"""Vectorized 1-D sequence-partitioning kernels.

The kernels behind :mod:`repro.partitioners.sequence`, proven
bit-identical to the frozen scalar loops in
``tests/reference/ref_sequence.py`` by the differential suite.  The
vectorizations replace the per-item Python loops with prefix sums and
``np.searchsorted`` boundary placement:

- the greedy fill becomes a *chase* of a non-decreasing target sequence
  (thresholds crossed by the load prefix, floored by the keep-enough-
  items-for-the-remaining-processors reserve), solved in closed form
  with a running minimum;
- the capacity-weighted split becomes a single ``searchsorted`` of the
  exclusive load prefix into the cumulative capacity targets.

Inputs arrive validated (non-empty 1-D non-negative float ``loads``,
``p >= 1``) — the public wrappers in ``partitioners/sequence.py`` own
the checks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "greedy_owners_vector",
    "weighted_owners_vector",
    "boundaries_to_assignment_vector",
]


def greedy_owners_vector(loads: np.ndarray, p: int) -> np.ndarray:
    """Vector twin of the scalar greedy fill (owner array, curve order).

    The scalar loop advances ``seg`` by at most one per item, whenever
    the running load crossed the next fair-share threshold *or* the
    remaining items are just enough to give every remaining processor
    one.  Both triggers are "``seg`` is below a non-decreasing target
    ``g(i)``", so the sequential chase has the closed form::

        s(i) = min(i + 1,  min_{j <= i} (g(j) + i - j))

    computed with one ``np.minimum.accumulate``.  ``owners[i]`` is the
    segment *before* item ``i`` was processed, i.e. ``s(i - 1)``.
    """
    n = loads.size
    owners = np.zeros(n, dtype=int)
    if p == 1 or n == 1:
        return owners
    total = loads.sum()
    target = total / p
    prefix = np.cumsum(loads)
    idx = np.arange(n)
    # Thresholds target*(seg+1) exactly as the scalar comparison builds
    # them (one float multiply each); crossed(i) counts how many the
    # inclusive prefix has reached.
    thresholds = target * np.arange(1, p)
    crossed = np.searchsorted(thresholds, prefix, side="right")
    # Reserve floor: after item i there are n-1-i items left; the scalar
    # loop force-closes whenever that is <= the processors still to fill.
    reserve = idx + 1 + (p - n)
    g = np.minimum(np.maximum(crossed, reserve), p - 1)
    s = np.minimum(np.minimum.accumulate(g - idx) + idx, idx + 1)
    owners[1:] = s[:-1]
    return owners


def weighted_owners_vector(
    loads: np.ndarray, p: int, capacities: np.ndarray, total: float
) -> np.ndarray:
    """Vector twin of the capacity-weighted split.

    The scalar loop advances past every cumulative capacity target the
    *exclusive* load prefix has reached before assigning each item, so
    the owner of item ``i`` is simply the count of targets ``<=
    prefix[i-1]`` — one ``searchsorted`` (capped at ``p - 1`` because
    only the first ``p - 1`` targets are cut points).
    """
    prefix = np.cumsum(loads)
    before = np.concatenate([[0.0], prefix[:-1]])
    cum_target = np.cumsum(capacities) / capacities.sum() * total
    return np.searchsorted(cum_target[: p - 1], before, side="right")


def boundaries_to_assignment_vector(
    boundaries: np.ndarray, n: int, p: int
) -> np.ndarray:
    """Vector twin of the boundary → owner-array expansion."""
    return np.repeat(np.arange(p), np.diff(boundaries))
