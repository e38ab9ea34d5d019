"""Experiment runners: one module per table/figure of the Blox paper.

Every runner is a plain function returning an
:class:`repro.experiments.harness.ExperimentTable`, built from
``RunSpec.build().run()`` results; ``tests/test_experiments.py`` runs each at
a smoke size against pinned rows, while the module's ``main`` block prints
the full-scale table.
"""

from repro.experiments.harness import ExperimentTable, run_sweep

__all__ = ["ExperimentTable", "run_sweep"]
