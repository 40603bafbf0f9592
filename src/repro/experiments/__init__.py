"""First-class reproduction experiments — one module per table/figure.

Every experiment module exposes the Scenario API (:mod:`repro.sweep`):

- ``run_scenario(ctx)`` — execute the experiment and return its JSON
  digest,
- ``render_scenario(result)`` — format the paper-style table/figure as
  text,
- the published values (``PAPER`` and friends) for comparison.

The pytest benchmarks under ``benchmarks/``, the sweep engine and the
command line (``python -m repro run <experiment>``) are all thin wrappers
around these.
"""

from repro.experiments import common
from repro.experiments import table1, table2, table3, table4, table5
from repro.experiments import fig1, fig2, fig3, fig4

EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
}

__all__ = ["EXPERIMENTS", "common"] + list(EXPERIMENTS)
