"""Regenerate the golden partition corpus.

Run from the repo root:

    PYTHONPATH=src python tests/golden/regen.py

Each JSON file holds a serialized hierarchy plus sha256 digests of the
composite workload map and of every registry partitioner's owner array.
The digests are computed with the frozen scalar oracles of
``tests/reference/`` standing in for the production kernels
(:func:`oracle_kernels`), so the corpus records the oracle semantics the
kernels are tested against.  Only regenerate after an *intended*
algorithm change, in the same commit as the matching kernel +
``tests/reference`` updates.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.amr import workload as amr_workload
from repro.amr.box import Box
from repro.amr.regrid import Regridder, RegridPolicy
from repro.kernels.bench import load_oracle
from repro.partitioners import PARTITIONER_REGISTRY, build_units

HERE = Path(__file__).parent
NUM_PROCS = 8
GRANULARITY = 4


def digest(arr: np.ndarray) -> str:
    arr = np.asarray(arr)
    dtype = np.float64 if np.issubdtype(arr.dtype, np.floating) else np.int64
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()
    ).hexdigest()


@contextmanager
def oracle_kernels():
    """Route every production kernel entry point to its frozen oracle.

    Every ``repro`` module attribute bound to a kernel entry point (the
    defining module's and every importer's) is swapped for the oracle
    function for the duration of the block.
    """
    from repro.amr import workload
    from repro.execsim import costmodel
    from repro.partitioners import gmisp, pbd_isp, sequence

    ref_sequence = load_oracle("ref_sequence")
    ref_workload = load_oracle("ref_workload")

    def oracle_load_map(hierarchy):
        return workload.WorkloadMap(
            domain=hierarchy.domain,
            values=ref_workload.composite_values(hierarchy),
        )

    swaps = {
        id(fn): (fn, oracle) for fn, oracle in (
            (sequence.boundaries_to_assignment,
             ref_sequence.boundaries_to_assignment),
            (sequence.greedy_sequence_partition,
             ref_sequence.greedy_sequence_partition),
            (sequence.optimal_sequence_partition,
             ref_sequence.optimal_sequence_partition),
            (sequence.weighted_sequence_partition,
             ref_sequence.weighted_sequence_partition),
            (gmisp.variable_grain_segments,
             load_oracle("ref_gmisp").variable_grain_segments),
            (pbd_isp.pbd_partition_cube,
             load_oracle("ref_pbd").pbd_partition_cube),
            (workload.composite_load_map, oracle_load_map),
            (costmodel.comm_cost_terms,
             load_oracle("ref_costmodel").comm_cost_terms),
        )
    }
    undo = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            fn, oracle = swaps.get(id(value), (None, None))
            if fn is value:
                setattr(module, attr, oracle)
                undo.append((module, attr, value))
    assert {id(value) for _, _, value in undo} == set(swaps)
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


def hierarchies():
    rng = np.random.default_rng(2026)

    blob_domain = Box((0, 0, 0), (32, 16, 16))
    err = np.zeros(blob_domain.shape)
    err[6:14, 4:10, 4:10] = 0.6
    err[8:12, 5:8, 5:8] = 0.95
    yield "blob", Regridder(
        blob_domain, RegridPolicy(thresholds=(0.3, 0.8))
    ).regrid(err)

    noise_domain = Box((0, 0, 0), (24, 24, 12))
    yield "bulky", Regridder(
        noise_domain, RegridPolicy(thresholds=(0.55, 0.85))
    ).regrid(rng.random(noise_domain.shape))

    sparse_domain = Box((0, 0, 0), (32, 32, 16))
    spikes = (rng.random(sparse_domain.shape) > 0.985).astype(float)
    yield "spiky", Regridder(
        sparse_domain, RegridPolicy(thresholds=(0.5,))
    ).regrid(spikes)


def main() -> None:
    with oracle_kernels():
        _write_corpus()


def _write_corpus() -> None:
    for name, hierarchy in hierarchies():
        workload = amr_workload.composite_load_map(hierarchy)
        units = build_units(hierarchy, granularity=GRANULARITY)
        doc = {
            "num_procs": NUM_PROCS,
            "granularity": GRANULARITY,
            "hierarchy": hierarchy.to_dict(),
            "workload_digest": digest(workload.values),
            "partitions": {
                pname: digest(
                    cls().partition(units, NUM_PROCS).assignment
                )
                for pname, cls in PARTITIONER_REGISTRY.items()
            },
        }
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path} ({hierarchy.num_patches} patches)")


if __name__ == "__main__":
    main()
