"""Differential tests: the production kernels vs the frozen scalar oracle.

Every vectorized kernel in :mod:`repro.kernels` must be *bit-identical*
to the scalar loop it replaced.  The oracle is the frozen copy under
``tests/reference/`` (see its freeze rule); the production entry points
are compared against it over a randomized corpus.  The committed golden
corpus of serialized hierarchies + partition digests under
``tests/golden/`` must be reproduced both by the kernels (``vector``)
and by the oracles swapped in for them (``scalar``, the way
``tests/golden/regen.py`` computes the corpus).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.amr import workload as amr_workload
from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import Regridder, RegridPolicy
from repro.amr.workload import VECTOR_MIN_PATCHES, composite_load_map
from repro.partitioners import PARTITIONER_REGISTRY, build_units
from repro.partitioners.gmisp import variable_grain_segments
from repro.partitioners.pbd_isp import pbd_partition_cube
from repro.partitioners.sequence import (
    greedy_sequence_partition,
    optimal_sequence_partition,
    weighted_sequence_partition,
)

TESTS = Path(__file__).parent


def _load_reference(name: str, directory: str = "reference"):
    path = TESTS / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ref_sequence = _load_reference("ref_sequence")
ref_gmisp = _load_reference("ref_gmisp")
ref_pbd = _load_reference("ref_pbd")
ref_workload = _load_reference("ref_workload")
regen = _load_reference("regen", "golden")


def kernels_for(impl: str):
    """``vector``: the production kernels; ``scalar``: the frozen oracles."""
    return regen.oracle_kernels() if impl == "scalar" else contextlib.nullcontext()


def digest(arr: np.ndarray) -> str:
    """Byte-exact sha256 of an array (int64 for owners, float64 for loads)."""
    arr = np.asarray(arr)
    dtype = np.float64 if np.issubdtype(arr.dtype, np.floating) else np.int64
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()
    ).hexdigest()


# -- randomized corpora -------------------------------------------------------


def _loads_corpus(rng: np.random.Generator):
    """(loads, p) cases spanning the shapes the partitioners meet."""
    cases = []
    for n, p in [(1, 1), (3, 5), (7, 3), (64, 8), (100, 7), (250, 16), (997, 31)]:
        loads = rng.random(n)
        cases.append((loads, p))
        spiky = loads.copy()
        spiky[:: max(n // 5, 1)] *= 200.0
        cases.append((spiky, p))
        sparse = loads * (rng.random(n) > 0.6)
        cases.append((sparse, p))
    cases.append((np.zeros(40), 6))        # degenerate: no load at all
    cases.append((np.ones(12), 12))        # exactly one unit per processor
    cases.append((np.ones(5), 9))          # fewer units than processors
    return cases


def _capacities_corpus(rng: np.random.Generator, p: int):
    caps = [np.ones(p), rng.random(p) + 0.05]
    if p > 1:
        zeroed = rng.random(p) + 0.5
        zeroed[:: 2] = 0.0                 # half the nodes unavailable
        caps.append(zeroed)
    return caps


def _hierarchy_corpus():
    """Regridded hierarchies: blob, bulky noise, sparse spikes."""
    rng = np.random.default_rng(42)
    out = []

    blob_domain = Box((0, 0, 0), (32, 16, 16))
    err = np.zeros(blob_domain.shape)
    err[6:14, 4:10, 4:10] = 0.6
    err[8:12, 5:8, 5:8] = 0.95
    out.append(
        Regridder(blob_domain, RegridPolicy(thresholds=(0.3, 0.8))).regrid(err)
    )

    noise_domain = Box((0, 0, 0), (24, 24, 12))
    noise = rng.random(noise_domain.shape)
    out.append(
        Regridder(noise_domain, RegridPolicy(thresholds=(0.55, 0.85))).regrid(noise)
    )

    sparse_domain = Box((0, 0, 0), (32, 32, 16))
    spikes = (rng.random(sparse_domain.shape) > 0.985).astype(float)
    out.append(
        Regridder(sparse_domain, RegridPolicy(thresholds=(0.5,))).regrid(spikes)
    )
    return out


# -- sequence kernels ---------------------------------------------------------


class TestSequenceDifferential:
    def test_greedy_matches_oracle(self):
        rng = np.random.default_rng(1234)
        for loads, p in _loads_corpus(rng):
            got = greedy_sequence_partition(loads, p)
            want = ref_sequence.greedy_sequence_partition(loads, p)
            np.testing.assert_array_equal(got, want)

    def test_optimal_matches_oracle(self):
        rng = np.random.default_rng(5678)
        for loads, p in _loads_corpus(rng):
            got = optimal_sequence_partition(loads, p)
            want = ref_sequence.optimal_sequence_partition(loads, p)
            np.testing.assert_array_equal(got, want)

    def test_weighted_matches_oracle(self):
        rng = np.random.default_rng(91011)
        for loads, p in _loads_corpus(rng):
            for caps in _capacities_corpus(rng, p):
                got = weighted_sequence_partition(loads, p, caps)
                want = ref_sequence.weighted_sequence_partition(loads, p, caps)
                np.testing.assert_array_equal(got, want)


# -- G-MISP segmentation ------------------------------------------------------


class TestGMISPDifferential:
    def test_segments_match_oracle(self):
        rng = np.random.default_rng(1415)
        for loads, p in _loads_corpus(rng):
            for coarse in (4, 16, 64):
                for split_factor in (0.25, 1.0):
                    got = variable_grain_segments(loads, p, coarse, split_factor)
                    want = ref_gmisp.variable_grain_segments(
                        loads, p, coarse, split_factor
                    )
                    np.testing.assert_array_equal(got, want)


# -- pBD-ISP dissection -------------------------------------------------------


class TestPBDDifferential:
    CUBES = [(8, 8, 8), (16, 8, 4), (5, 7, 3), (2, 2, 2), (1, 9, 1)]

    def test_cube_owners_match_oracle(self):
        rng = np.random.default_rng(1617)
        for shape in self.CUBES:
            for procs in (1, 2, 3, 7, 13):
                cube = rng.random(shape)
                got = pbd_partition_cube(cube, procs)
                want = ref_pbd.pbd_partition_cube(cube, procs)
                np.testing.assert_array_equal(got, want)

    def test_zero_load_cube(self):
        got = pbd_partition_cube(np.zeros((6, 4, 2)), 5)
        want = ref_pbd.pbd_partition_cube(np.zeros((6, 4, 2)), 5)
        np.testing.assert_array_equal(got, want)


# -- composite load map -------------------------------------------------------


class TestWorkloadDifferential:
    def test_values_match_oracle(self):
        hierarchies = _hierarchy_corpus()
        # the corpus must exercise both the batched scatter kernel and
        # the per-patch loop that small hierarchies take
        assert any(h.num_patches >= VECTOR_MIN_PATCHES for h in hierarchies)
        assert any(h.num_patches < VECTOR_MIN_PATCHES for h in hierarchies)
        for hierarchy in hierarchies:
            got = composite_load_map(hierarchy).values
            want = ref_workload.composite_values(hierarchy)
            np.testing.assert_array_equal(got, want)


# -- golden corpus ------------------------------------------------------------

# costmodel.json is the comm-cost kernel corpus (different schema) owned
# by tests/test_execsim_kernels.py; api_surface.json is the public-API
# snapshot owned by tests/test_api_surface.py; simtest_seeds.json is the
# simulation-fuzzer seed corpus owned by tests/test_simtest.py.
GOLDEN = sorted(
    p for p in (TESTS / "golden").glob("*.json")
    if p.name not in ("costmodel.json", "api_surface.json",
                      "simtest_seeds.json")
)


@pytest.mark.parametrize("impl", ["scalar", "vector"])
@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_corpus(path, impl):
    doc = json.loads(path.read_text())
    hierarchy = GridHierarchy.from_dict(doc["hierarchy"])
    with kernels_for(impl):
        workload = amr_workload.composite_load_map(hierarchy)
        assert digest(workload.values) == doc["workload_digest"]
        units = build_units(hierarchy, granularity=doc["granularity"])
        for name, want in doc["partitions"].items():
            part = PARTITIONER_REGISTRY[name]().partition(units, doc["num_procs"])
            assert digest(part.assignment) == want, (
                f"{name} drifted from golden digest ({impl})"
            )


def test_golden_corpus_exists():
    assert len(GOLDEN) >= 2
    for path in GOLDEN:
        doc = json.loads(path.read_text())
        assert set(doc["partitions"]) == set(PARTITIONER_REGISTRY)


def test_benches_need_the_source_checkout(monkeypatch, tmp_path, capsys):
    """Without ``tests/reference/`` the oracle benches stop with a clear
    CLI error instead of a traceback."""
    from repro.cli import main
    from repro.kernels import bench

    monkeypatch.setattr(bench, "ORACLE_DIR", tmp_path)
    for verb in (["kernels-bench", "--sizes", "10"],
                 ["execsim-bench", "--pairs", "10"]):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--repeats", "1"])
        assert exc.value.code == 2
        assert "source checkout" in capsys.readouterr().err
