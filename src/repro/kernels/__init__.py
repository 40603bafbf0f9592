"""Numpy-vectorized kernels for the partitioning hot path.

The adaptive meta-partitioner re-partitions the SAMR hierarchy at every
regrid step, so the composite-load → linearize → partition loop dominates
the reproduction's runtime.  This package holds the vectorized forms of
its inner loops:

- :mod:`repro.kernels.sequence` — greedy / weighted / optimal sequence
  partitioning over the curve-ordered loads,
- :mod:`repro.kernels.gmisp` — variable-grain curve segmentation
  (worklist splitting instead of per-block recursion),
- :mod:`repro.kernels.pbd` — p-way binary dissection of the load cube
  (explicit stack instead of recursion),
- :mod:`repro.kernels.workload` — composite load-map accumulation
  (per-level bucketed scatter instead of per-patch slice arithmetic),
- :mod:`repro.kernels.costmodel` — the execution simulator's
  communication cost terms (bincount scatters over the adjacency
  arrays instead of a per-pair Python loop).

Each kernel is the only production path for its computation; the
owning module (``partitioners/sequence.py``, ``gmisp.py``,
``pbd_isp.py``, ``amr/workload.py``, ``execsim/costmodel.py``) validates
inputs, counts the call under ``kernels.calls{kernel=...}`` and
dispatches here.  The scalar loops the kernels replaced are kept, frozen,
as the differential oracle under ``tests/reference/``: the suites in
``tests/test_kernels.py`` and ``tests/test_execsim_kernels.py`` prove the
kernels **bit-identical** to them over randomized and golden corpora.
``python -m repro kernels-bench`` and ``python -m repro execsim-bench``
time oracle vs kernel on sized inputs and write ``BENCH_kernels.json`` /
``BENCH_execsim.json`` (see :mod:`repro.kernels.bench`,
:mod:`repro.execsim.bench`).
"""
