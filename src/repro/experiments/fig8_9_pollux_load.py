"""Figures 8 and 9: Pollux vs FIFO vs LAS on the Pollux trace under varying load.

The paper sweeps the arrival rate from 1 to 40 jobs/hour on 64 GPUs using the
Pollux trace (short jobs, so contention needs a higher rate to appear).  The
findings: at low/medium load Pollux's elastic allocations give it the best JCT
with responsiveness on par with the others; past ~20 jobs/hour Pollux's
no-preemption design makes both its JCT and responsiveness degrade towards
FIFO, while LAS keeps responsiveness low by preempting long jobs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.harness import ExperimentTable
from repro.telemetry.runspec import RunSpec

DEFAULT_LOADS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
POLICIES = ("fifo", "las", "pollux")


def run_fig8_9(
    loads_jobs_per_hour: Sequence[float] = DEFAULT_LOADS,
    num_jobs: int = 320,
    tracked_window: tuple = (60, 220),
    num_nodes: int = 16,
    seed: int = 3,
    round_duration: float = 300.0,
) -> ExperimentTable:
    """Average JCT and responsiveness per (policy, load) pair on the Pollux trace."""
    table = ExperimentTable(
        name="fig8-9-pollux-load",
        description=(
            "Average JCT and responsiveness (hours) for Pollux, FIFO and LAS on the Pollux-like "
            "trace while varying load on a 64-GPU cluster."
        ),
    )
    base = RunSpec(
        workload="pollux",
        seed=seed,
        num_jobs=num_jobs,
        num_nodes=num_nodes,
        round_duration=round_duration,
        workload_params=(("tracked_window", tracked_window),),
    )
    for load in loads_jobs_per_hour:
        for policy in POLICIES:
            result = replace(base, jobs_per_hour=load, policy=policy).build().run()
            table.add_row(
                policy=policy,
                jobs_per_hour=load,
                avg_jct_hours=result.avg_jct() / 3600.0,
                avg_responsiveness_hours=result.avg_responsiveness() / 3600.0,
            )
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_fig8_9().to_text())
