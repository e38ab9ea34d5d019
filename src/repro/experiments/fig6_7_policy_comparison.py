"""Figures 6 and 7: comparing FIFO, Tiresias and Optimus under varying load.

The paper sweeps the Philly-trace arrival rate from 1 to 9 jobs/hour on a
128-GPU cluster (consolidated placement for every policy) and reports average
JCT (Fig. 6) and average responsiveness (Fig. 7).  The qualitative findings it
highlights -- Optimus wins on JCT at low load; at high load Tiresias' JCT
exceeds FIFO's while its responsiveness stays low; FIFO's responsiveness is by
far the worst at high load -- are what the matching benchmark asserts.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Sequence

from repro.experiments.harness import ExperimentTable, run_sweep
from repro.telemetry.runspec import RunSpec

DEFAULT_LOADS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
POLICIES = ("fifo", "tiresias", "optimus")

#: Heavy-tailed duration parameters used for this sweep: long jobs carry enough
#: of the total work for the preemption-vs-ordering trade-off between FIFO and
#: LAS-style policies to be visible at high load (see DESIGN.md).
HEAVY_TAIL = (("median_duration_hours", 2.5), ("duration_sigma", 1.8))


def run_cell(spec: RunSpec) -> Dict[str, object]:
    """One (policy, load) point of the grid, as its table row."""
    result = spec.build().run()
    tracked = result.tracked_jobs()
    return dict(
        policy=spec.policy,
        jobs_per_hour=spec.jobs_per_hour,
        avg_jct_hours=result.avg_jct() / 3600.0,
        avg_responsiveness_hours=result.avg_responsiveness() / 3600.0,
        avg_preemptions=sum(j.num_preemptions for j in tracked) / max(1, len(tracked)),
    )


def run_fig6_7(
    loads_jobs_per_hour: Sequence[float] = DEFAULT_LOADS,
    num_jobs: int = 600,
    tracked_window: tuple = (100, 250),
    num_nodes: int = 32,
    seed: int = 7,
    round_duration: float = 300.0,
) -> ExperimentTable:
    """Average JCT and responsiveness per (policy, load) pair.

    The grid's cells are independent, so they fan out through :func:`run_sweep`.
    """
    table = ExperimentTable(
        name="fig6-7-policy-comparison",
        description=(
            "Average JCT and responsiveness (hours) for FIFO, Tiresias and Optimus on the "
            "Philly-like trace as the arrival rate varies (128-GPU cluster by default)."
        ),
    )
    base = RunSpec(
        seed=seed,
        num_jobs=num_jobs,
        num_nodes=num_nodes,
        round_duration=round_duration,
        workload_params=(("tracked_window", tracked_window),) + HEAVY_TAIL,
    )
    specs = [
        replace(base, jobs_per_hour=load, policy=policy)
        for load in loads_jobs_per_hour
        for policy in POLICIES
    ]
    table.rows = run_sweep([partial(run_cell, spec) for spec in specs])
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_fig6_7().to_text())
