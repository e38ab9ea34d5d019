"""Shared plumbing for the per-figure experiment runners.

A figure is a list of :class:`~repro.telemetry.runspec.RunSpec` values: each
runner sweeps ``dataclasses.replace`` over one base spec, runs every point
through ``spec.build().run()`` and reports a small table of rows (the series
the corresponding figure plots).  :class:`ExperimentTable` is the common
result container with a text rendering used by the ``__main__`` blocks;
:func:`run_sweep` fans a multi-cell figure out across processes.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


@dataclass
class ExperimentTable:
    """Rows of one reproduced table/figure plus free-form metadata."""

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def column(self, key: str) -> List[object]:
        return [row.get(key) for row in self.rows]

    def to_text(self) -> str:
        """Render the table as aligned plain text (used by examples and __main__)."""
        lines = [f"== {self.name} ==", self.description]
        if not self.rows:
            lines.append("(no rows)")
            return "\n".join(lines)
        columns = list(self.rows[0].keys())
        widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows)) for c in columns}
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# ----------------------------------------------------------------------
# Multi-process sweep runner
# ----------------------------------------------------------------------


def run_sweep(tasks: Sequence[Callable[[], object]], processes: Optional[int] = None) -> List:
    """Run a sweep of independent simulations, in parallel across processes.

    A task is a picklable zero-argument callable -- a ``partial`` of a
    module-level function over plain data, typically one frozen
    :class:`~repro.telemetry.runspec.RunSpec` (one cell of a figure's grid,
    one leg of a scenario-matrix cell).  What the tasks return comes back as
    a list in task order.  ``processes`` defaults to one worker per task,
    capped at the CPU count; pass ``1`` to run serially in-process.  A task
    that cannot be pickled is a bug in the caller (a closure where a registry
    name belongs) and raises, naming its index.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if processes is None:
        processes = min(len(tasks), os.cpu_count() or 1)
    if processes > 1 and len(tasks) > 1:
        # Probe picklability up front so a submission failure is cleanly
        # distinguished from errors raised *inside* worker simulations.
        for index, task in enumerate(tasks):
            try:
                pickle.dumps(task)
            except Exception as exc:
                raise ValueError(
                    f"sweep task {index} ({task!r}) cannot be sent to a worker process: {exc!r}"
                ) from exc
        with ProcessPoolExecutor(max_workers=processes) as executor:
            futures = [executor.submit(task) for task in tasks]
            return [future.result() for future in futures]
    return [task() for task in tasks]
