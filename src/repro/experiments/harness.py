"""Shared plumbing for the per-figure experiment runners.

The runners all follow the same pattern: build a trace, build a cluster, run
one simulation per policy/parameter combination, and report a small table of
rows (the series the corresponding figure plots).  :func:`run_policy` performs
one such simulation; :class:`ExperimentTable` is the common result container
with a text rendering used by the examples and the ``__main__`` blocks.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.abstractions import (
    AdmissionPolicy,
    ClusterManager,
    MetricCollector,
    PlacementPolicy,
    SchedulingPolicy,
    TerminationPolicy,
)
from repro.core.cluster_state import ClusterState
from repro.cluster.builder import build_cluster
from repro.simulator.engine import SimulationResult, Simulator
from repro.simulator.overheads import OverheadModel
from repro.workloads.trace import Trace


@dataclass
class PolicySpec:
    """Factories for the policy modules one simulation composes.

    Factories (rather than instances) are used because policies carry internal
    state (admission queues, Tiresias' starvation clock) that must not leak
    between runs.
    """

    label: str
    scheduling: Callable[[], SchedulingPolicy]
    placement: Optional[Callable[[], PlacementPolicy]] = None
    admission: Optional[Callable[[], AdmissionPolicy]] = None
    termination: Optional[Callable[[], TerminationPolicy]] = None


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

    def rows_where(self, **criteria: object) -> List[Dict[str, object]]:
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out

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


def run_policy(
    trace: Trace,
    spec: PolicySpec,
    num_nodes: int,
    gpus_per_node: int = 4,
    gpu_type: str = "v100",
    network_bw_gbps: float = 10.0,
    round_duration: float = 300.0,
    overhead_model: Optional[OverheadModel] = None,
    metric_collectors: Sequence[MetricCollector] = (),
    cluster: Optional[ClusterState] = None,
    tracked_job_ids: Optional[Sequence[int]] = None,
    max_rounds: int = 200_000,
    cluster_manager: Optional[ClusterManager] = None,
    fast_forward: bool = True,
) -> SimulationResult:
    """Run one simulation of ``trace`` under ``spec`` on a fresh cluster.

    ``tracked_job_ids`` overrides the trace's own tracked window; experiments
    that augment a trace (e.g. spike injection) use it to keep reporting the
    original steady-state jobs.  ``cluster_manager`` injects scheduled
    membership dynamics (e.g. a scenario timeline manager); like policy
    state, managers are stateful, so hand each run a fresh instance.
    """
    if cluster is None:
        cluster = build_cluster(
            num_nodes=num_nodes,
            gpus_per_node=gpus_per_node,
            gpu_type=gpu_type,
            network_bw_gbps=network_bw_gbps,
        )
    simulator = Simulator(
        cluster_state=cluster,
        jobs=trace.fresh_jobs(),
        scheduling_policy=spec.scheduling(),
        placement_policy=spec.placement() if spec.placement else None,
        admission_policy=spec.admission() if spec.admission else None,
        termination_policy=spec.termination() if spec.termination else None,
        round_duration=round_duration,
        overhead_model=overhead_model,
        metric_collectors=metric_collectors,
        tracked_job_ids=list(tracked_job_ids) if tracked_job_ids is not None else trace.tracked_ids(),
        max_rounds=max_rounds,
        cluster_manager=cluster_manager,
        fast_forward=fast_forward,
    )
    return simulator.run()


# ----------------------------------------------------------------------
# Multi-process sweep runner
# ----------------------------------------------------------------------


@dataclass
class SweepTask:
    """One simulation of a sweep: a trace, a policy spec and run_policy kwargs.

    For the sweep to run across processes the task must be picklable, which in
    practice means ``spec`` must be built from module-level factories (classes
    or named functions), not lambdas or closures; tasks that fail to pickle
    make the whole sweep fall back to serial execution.
    """

    label: str
    trace: Trace
    spec: PolicySpec
    run_kwargs: Dict[str, object] = field(default_factory=dict)

    def __call__(self) -> Tuple[str, SimulationResult]:
        return self.label, run_policy(self.trace, self.spec, **self.run_kwargs)


def _execute_sweep_task(task: Callable[[], object]) -> object:
    return task()


def run_sweep(tasks: Sequence[Callable[[], object]], processes: Optional[int] = None) -> List:
    """Run a sweep of independent simulations, in parallel across processes.

    A task is a picklable zero-argument callable: a :class:`SweepTask` (one
    ``run_policy`` invocation, e.g. a policy/parameter combination of a load
    sweep such as the paper's Fig. 8-9; returns a ``(label, result)`` pair)
    or a ``partial`` of a module-level function (the scenario matrix ships
    one leg of a ``RunSpec`` cell that way).  What the tasks return comes
    back as a list in task order.  ``processes`` defaults to one worker per
    task, capped at the CPU count; pass ``1`` (or supply tasks that cannot be
    pickled) to run serially in-process.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if processes is None:
        processes = min(len(tasks), os.cpu_count() or 1)
    if processes > 1 and len(tasks) > 1:
        # Probe picklability up front so a submission failure is cleanly
        # distinguished from errors raised *inside* worker simulations (which
        # must propagate, not trigger a silent serial rerun).  The extra
        # serialization pass is bounded by the pool's own shipping cost.
        try:
            for task in tasks:
                pickle.dumps(task)
        except Exception as exc:
            # Unpicklable tasks (lambda factories, closures) cannot be shipped
            # to workers; running serially is correct because simulations are
            # pure, but say so -- a silently serial "parallel" sweep reads as a
            # performance regression otherwise.
            warnings.warn(
                f"sweep tasks could not be sent to worker processes ({exc!r}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            with ProcessPoolExecutor(max_workers=processes) as executor:
                return list(executor.map(_execute_sweep_task, tasks))
    return [_execute_sweep_task(task) for task in tasks]
