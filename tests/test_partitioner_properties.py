"""Property-based invariants of the partitioner suite.

Randomized :class:`GridHierarchy` strategies (regridded noise / blob /
spike error fields) drive every registry partitioner plus the
capacity-weighted pair, checking the invariants the production kernels
must uphold:

- **disjoint cover** — every composite unit gets exactly one owner in
  ``[0, num_procs)``,
- **exact load conservation** — the per-processor groups are a
  permutation of the unit loads, so their ``math.fsum`` equals the
  composite total bit-for-bit,
- **no empty processor** whenever there are at least as many divisible
  grains as processors (for SFC the grain is the indivisible
  pseudo-patch chunk, so the guarantee is conditioned on chunk count),
- **zero-capacity starvation** — capacity-weighted splits assign only
  negligible load (zero up to float rounding of the cumulative
  targets) to a zero-capacity processor.  Exact-zero behavior for
  well-scaled loads is pinned by the deterministic regressions in
  ``test_sequence.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amr.box import Box
from repro.amr.regrid import Regridder, RegridPolicy
from repro.partitioners import (
    PARTITIONER_REGISTRY,
    HeterogeneousPartitioner,
    build_units,
)
from repro.partitioners.sequence import weighted_sequence_partition
from repro.partitioners.sfc import SFCPartitioner
from repro.sfc import CURVES

REGISTRY_NAMES = sorted(PARTITIONER_REGISTRY)


@st.composite
def hierarchies(draw):
    """Small regridded hierarchies spanning the paper's grid regimes."""
    nx = draw(st.sampled_from([8, 12, 16, 20]))
    ny = draw(st.sampled_from([8, 12, 16]))
    nz = draw(st.sampled_from([4, 8]))
    seed = draw(st.integers(0, 2**20))
    style = draw(st.sampled_from(["noise", "blob", "spikes"]))
    thresholds = draw(st.sampled_from([(0.5,), (0.4, 0.8)]))
    domain = Box((0, 0, 0), (nx, ny, nz))
    rng = np.random.default_rng(seed)
    if style == "noise":
        err = rng.random(domain.shape)
    elif style == "spikes":
        err = (rng.random(domain.shape) > 0.9).astype(float)
    else:
        err = np.zeros(domain.shape)
        cx, cy = nx // 2, ny // 2
        err[cx - 2 : cx + 3, cy - 2 : cy + 3, :] = 0.6
        err[cx - 1 : cx + 2, cy - 1 : cy + 2, :] = 0.95
    return Regridder(domain, RegridPolicy(thresholds=thresholds)).regrid(err)


@st.composite
def unit_sets(draw):
    hierarchy = draw(hierarchies())
    granularity = draw(st.sampled_from([2, 4]))
    curve = draw(st.sampled_from(sorted(CURVES)))
    return build_units(hierarchy, granularity=granularity, curve=curve)


class TestRegistryInvariants:
    @given(units=unit_sets(), num_procs=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_disjoint_cover(self, units, num_procs):
        n = len(units)
        for name in REGISTRY_NAMES:
            part = PARTITIONER_REGISTRY[name]().partition(units, num_procs)
            a = part.assignment
            assert a.shape == (n,), name
            assert a.min() >= 0 and a.max() < num_procs, name

    @given(units=unit_sets(), num_procs=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_exact_load_conservation(self, units, num_procs):
        total = math.fsum(units.loads)
        for name in REGISTRY_NAMES:
            a = PARTITIONER_REGISTRY[name]().partition(units, num_procs).assignment
            regrouped = np.concatenate(
                [units.loads[a == k] for k in range(num_procs)]
            )
            assert regrouped.size == len(units), name
            assert math.fsum(regrouped) == total, name

    @given(units=unit_sets(), num_procs=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_no_empty_processor(self, units, num_procs):
        """Every divisible-grain partitioner feeds all processors."""
        n = len(units)
        if n < num_procs:
            return
        for name in REGISTRY_NAMES:
            if name == "SFC":
                continue  # indivisible chunks: see test_sfc_chunk_conditioned
            a = PARTITIONER_REGISTRY[name]().partition(units, num_procs).assignment
            used = np.bincount(a, minlength=num_procs)
            assert (used > 0).all(), (
                f"{name} starved processors {np.flatnonzero(used == 0)} "
                f"with {n} units on {num_procs} procs"
            )

    @given(
        units=unit_sets(),
        num_procs=st.integers(1, 12),
        patch_units=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_sfc_chunk_conditioned(self, units, num_procs, patch_units):
        """SFC feeds all processors iff it has at least that many chunks."""
        chunks = -(-len(units) // patch_units)
        a = SFCPartitioner(patch_units=patch_units).partition(
            units, num_procs
        ).assignment
        used = np.bincount(a, minlength=num_procs)
        if chunks >= num_procs:
            assert (used > 0).all()
        else:
            assert int((used > 0).sum()) == chunks


class TestCapacityWeighted:
    @given(
        units=unit_sets(),
        num_procs=st.integers(2, 10),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_zero_capacity_gets_nothing(self, units, num_procs, data):
        caps = np.asarray(
            data.draw(
                st.lists(
                    st.floats(0.0, 4.0, allow_nan=False),
                    min_size=num_procs,
                    max_size=num_procs,
                )
            )
        )
        if caps.sum() <= 0:
            caps[0] = 1.0
        part = HeterogeneousPartitioner().partition(units, num_procs, caps)
        if units.total_load > 0:
            a = part.assignment
            for k in np.flatnonzero(caps == 0.0):
                assert math.fsum(units.loads[a == k]) <= 1e-9 * units.total_load

    @given(
        loads=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=60),
        num_procs=st.integers(2, 8),
        zero_at=st.integers(0, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_weighted_kernel_zero_capacity(self, loads, num_procs, zero_at):
        loads = np.asarray(loads)
        caps = np.ones(num_procs)
        caps[zero_at % num_procs] = 0.0
        owners = weighted_sequence_partition(loads, num_procs, caps)
        total = math.fsum(loads)
        if total > 0:
            k = zero_at % num_procs
            assert math.fsum(loads[owners == k]) <= 1e-9 * total

    @given(
        loads=st.lists(
            st.floats(0.0, 100.0, allow_nan=False), min_size=8, max_size=60
        ),
        num_procs=st.integers(2, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_weighted_contiguous_and_total(self, loads, num_procs):
        loads = np.asarray(loads)
        caps = np.ones(num_procs)
        owners = weighted_sequence_partition(loads, num_procs, caps)
        assert (np.diff(owners) >= 0).all()
        assert math.fsum(
            np.concatenate([loads[owners == k] for k in range(num_procs)])
        ) == math.fsum(loads)


def test_registry_is_complete():
    assert REGISTRY_NAMES == sorted(
        ["SFC", "ISP", "G-MISP", "G-MISP+SP", "pBD-ISP", "SP-ISP"]
    )


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_single_processor_degenerate(name, small_hierarchy):
    units = build_units(small_hierarchy, granularity=4)
    part = PARTITIONER_REGISTRY[name]().partition(units, 1)
    assert (part.assignment == 0).all()
