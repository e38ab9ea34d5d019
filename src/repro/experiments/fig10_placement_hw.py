"""Figure 10: placement policies on a V100/10 Gbps cluster.

Tiresias' skew heuristic consolidates only high-skew jobs; on the P100 cluster
with 100 Gbps networking it was designed for, fragmenting the other jobs is
nearly free.  On V100 nodes with 10 Gbps links (more compute, less network)
fragmenting *any* distributed job hurts, so a blanket consolidated placement
wins at higher loads.  This experiment sweeps load on the Philly trace and
compares the two placement policies under the same (Tiresias) scheduling
policy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.harness import ExperimentTable
from repro.telemetry.runspec import RunSpec

DEFAULT_LOADS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
PLACEMENTS = ("tiresias-placement", "consolidated")


def run_fig10(
    loads_jobs_per_hour: Sequence[float] = DEFAULT_LOADS,
    num_jobs: int = 400,
    tracked_window: tuple = (80, 220),
    num_nodes: int = 32,
    seed: int = 11,
    round_duration: float = 300.0,
) -> ExperimentTable:
    """Average JCT of the Tiresias placement policy vs consolidate-everything."""
    table = ExperimentTable(
        name="fig10-placement-hardware",
        description=(
            "Average JCT (hours) of the Tiresias skew-heuristic placement vs consolidated "
            "placement on a V100/10 Gbps cluster as load varies."
        ),
    )
    base = RunSpec(
        policy="tiresias",
        seed=seed,
        num_jobs=num_jobs,
        num_nodes=num_nodes,
        round_duration=round_duration,
        workload_params=(("tracked_window", tracked_window),),
    )
    for load in loads_jobs_per_hour:
        for placement in PLACEMENTS:
            result = replace(base, jobs_per_hour=load, placement=placement).build().run()
            fragmented = sum(
                1
                for job in result.tracked_jobs()
                if job.metrics.get("was_fragmented", False)
            )
            table.add_row(
                placement=placement,
                jobs_per_hour=load,
                avg_jct_hours=result.avg_jct() / 3600.0,
                avg_responsiveness_hours=result.avg_responsiveness() / 3600.0,
                fragmented_jobs=fragmented,
            )
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_fig10().to_text())
