"""Shared benchmark fixtures.

The full RM3D reference trace (the paper's 128x32x32, 3-level, 800+ coarse
step run) takes ~30 s to generate; :mod:`repro.experiments.common` builds
it once and caches it on disk under ``.cache/``.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.amr.trace import AdaptationTrace
from repro.experiments.common import rm3d_reference_trace
from repro.sweep.builtin import PAPER_PARAMS
from repro.sweep.scenario import ScenarioContext


@pytest.fixture(scope="session")
def rm3d_trace() -> AdaptationTrace:
    return rm3d_reference_trace()


@pytest.fixture(scope="session")
def paper_ctx() -> Callable[[str], ScenarioContext]:
    """Builds the paper-fidelity context of an experiment (what ``python
    -m repro run`` uses: reference trace, 64 processors).  The trace is
    loaded before the context is handed out, so benchmark timings cover
    the experiment only."""

    def make(name: str) -> ScenarioContext:
        ctx = ScenarioContext(params=dict(PAPER_PARAMS[name]))
        if "trace" in ctx.params:
            ctx.trace()
        return ctx

    return make
