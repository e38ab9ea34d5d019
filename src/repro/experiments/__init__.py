"""The Blox paper's figures, reproduced.

``repro.experiments.figures.FIGURES`` holds every figure as data: the claim,
a full and a smoke grid of run descriptions, and one row function.
:func:`~repro.experiments.harness.run_figure` runs any of them into an
:class:`~repro.experiments.harness.ExperimentTable`; ``python -m
repro.experiments [--smoke] [--only NAME ...]`` prints the tables.
"""

from repro.experiments.harness import ExperimentTable, Figure, run_figure, run_sweep

__all__ = ["ExperimentTable", "Figure", "run_figure", "run_sweep"]
