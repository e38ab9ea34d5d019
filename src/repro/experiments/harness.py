"""What a figure is and how every figure runs.

A :class:`Figure` is plain data: the paper's claim in words, a full and a
smoke grid of picklable points (usually ``dataclasses.replace`` sweeps over
one :class:`~repro.telemetry.runspec.RunSpec`), and one module-level
``row(point)`` that turns a point into its table rows.  :func:`run_figure`
runs any figure the same way -- every point through :func:`run_sweep`, rows
flattened in point order -- into an :class:`ExperimentTable`, the common
result container with the text rendering ``python -m repro.experiments``
prints.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class ExperimentTable:
    """Rows of one reproduced table/figure."""

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def to_text(self) -> str:
        """Render the table as aligned plain text."""
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
        return f"{value:.4g}"
    return str(value)


@dataclass(frozen=True)
class Figure:
    """One reproduced figure of the paper, as data.

    ``full`` is the figure's grid at the paper's scale, ``smoke`` the same
    sweep shrunk to seconds.  ``row`` is a module-level function of one
    point returning that point's rows.  A figure whose rows report wall-clock
    time sets ``in_process``: its points then run serially in this process,
    one at a time, so no point times another's work.
    """

    name: str
    description: str
    full: Tuple[object, ...]
    smoke: Tuple[object, ...]
    row: Callable[[object], List[Dict[str, object]]]
    in_process: bool = False


def run_figure(figure: Figure, smoke: bool = False) -> ExperimentTable:
    """Every point of ``figure``'s grid, its rows in point order."""
    points = figure.smoke if smoke else figure.full
    table = ExperimentTable(figure.name, figure.description)
    tasks = [partial(figure.row, point) for point in points]
    for rows in run_sweep(tasks, processes=1 if figure.in_process else None):
        for row in rows:
            table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Multi-process sweep runner
# ----------------------------------------------------------------------


def run_sweep(tasks: Sequence[Callable[[], object]], processes: Optional[int] = None) -> List:
    """Run a sweep of independent simulations, in parallel across processes.

    A task is a picklable zero-argument callable -- a ``partial`` of a
    module-level function over plain data, typically one frozen
    :class:`~repro.telemetry.runspec.RunSpec` (one point of a figure's grid,
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
