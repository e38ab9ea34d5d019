"""Figure 11: skew-heuristic placement vs profile-based placement (Tiresias+).

The workload mix evolves so that 5, 6, 7 and finally all 8 of the Table-2
models benefit from consolidation, but the Tiresias skew heuristic only
identifies the first five.  "Tiresias+" consults profiled placement
preferences instead, so it keeps consolidating the right jobs as the mix
shifts and its advantage over the heuristic grows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.harness import ExperimentTable
from repro.telemetry.runspec import RunSpec

DEFAULT_SENSITIVE_COUNTS = (5, 6, 7, 8)
#: Row label -> placement registry name.
PLACEMENTS = {"tiresias": "tiresias-placement", "tiresias+": "tiresias-plus"}


def run_fig11(
    sensitive_counts: Sequence[int] = DEFAULT_SENSITIVE_COUNTS,
    jobs_per_hour: float = 8.0,
    num_jobs: int = 400,
    tracked_window: tuple = (80, 220),
    num_nodes: int = 32,
    seed: int = 13,
    round_duration: float = 300.0,
) -> ExperimentTable:
    """Average JCT of Tiresias vs Tiresias+ as placement-sensitive workloads increase."""
    table = ExperimentTable(
        name="fig11-placement-profiles",
        description=(
            "Average JCT (hours) of the Tiresias skew heuristic vs profile-based Tiresias+ as "
            "the number of placement-sensitive workloads grows from 5/8 to 8/8."
        ),
    )
    base = RunSpec(
        policy="tiresias",
        seed=seed,
        num_jobs=num_jobs,
        jobs_per_hour=jobs_per_hour,
        num_nodes=num_nodes,
        round_duration=round_duration,
    )
    for count in sensitive_counts:
        params = (("tracked_window", tracked_window), ("placement_sensitive_count", count))
        for label, placement in PLACEMENTS.items():
            result = replace(base, workload_params=params, placement=placement).build().run()
            table.add_row(
                placement=label,
                placement_sensitive_models=f"{count}/8",
                avg_jct_hours=result.avg_jct() / 3600.0,
            )
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_fig11().to_text())
