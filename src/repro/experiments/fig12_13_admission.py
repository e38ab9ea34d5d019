"""Figures 12 and 13: composing FIFO admission control with LAS scheduling.

At high load, LAS keeps responsiveness low but repeatedly preempts admitted
jobs, inflating average JCT.  Composing a threshold admission policy in front
of LAS (admit new jobs only while the admitted GPU demand is below N times the
cluster size) trades some responsiveness for a better JCT.  Figure 12 runs the
Philly trace at 8 jobs/hour; Figure 13 repeats the experiment with an extra
spike of 16 short jobs during one hour of every day.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.harness import ExperimentTable
from repro.telemetry.runspec import RunSpec

DEFAULT_ADMISSIONS = ("accept-all", "accept-1.5x", "accept-1.2x", "accept-1x")


def run_fig12_13(
    admissions: Sequence[str] = DEFAULT_ADMISSIONS,
    jobs_per_hour: float = 8.0,
    num_jobs: int = 400,
    tracked_window: tuple = (80, 250),
    num_nodes: int = 32,
    seed: int = 17,
    round_duration: float = 300.0,
    with_spikes: bool = True,
    spike_jobs: int = 16,
) -> ExperimentTable:
    """Average JCT and responsiveness of LAS under different admission thresholds."""
    table = ExperimentTable(
        name="fig12-13-admission-composition",
        description=(
            "Average JCT and responsiveness (hours) when composing FIFO admission control "
            "with LAS scheduling, on the plain Philly trace (Fig. 12) and with daily spikes "
            "of short jobs (Fig. 13)."
        ),
    )
    philly = RunSpec(
        policy="las",
        seed=seed,
        num_jobs=num_jobs,
        jobs_per_hour=jobs_per_hour,
        num_nodes=num_nodes,
        round_duration=round_duration,
        workload_params=(
            ("tracked_window", tracked_window),
            ("median_duration_hours", 2.5),
            ("duration_sigma", 1.8),
        ),
    )
    workloads = {"philly": philly}
    if with_spikes:
        # ``philly-spikes`` tracks the base trace's window by job id, so both
        # workloads report the same steady-state jobs.
        workloads["philly+spikes"] = replace(
            philly,
            workload="philly-spikes",
            workload_params=philly.workload_params + (("jobs_per_spike", spike_jobs),),
        )
    for workload_name, workload in workloads.items():
        for admission in admissions:
            result = replace(workload, admission=admission).build().run()
            table.add_row(
                workload=workload_name,
                admission=admission,
                avg_jct_hours=result.avg_jct() / 3600.0,
                avg_responsiveness_hours=result.avg_responsiveness() / 3600.0,
            )
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_fig12_13().to_text())
