"""Figure 3: reproducing Pollux -- average JCT vs. scheduling interval.

The paper reruns the Pollux OSDI '21 experiment (their §5.3.2) in Blox and
compares against the Pollux artifact: average JCT on the Pollux trace as the
scheduling round length varies over 1/2/4/8 minutes, on a 64-GPU cluster.  The
two implementations agree within a few per cent.  Here the "author
implementation" is the independent reference simulator in
:mod:`repro.baselines.pollux_reference`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.baselines.pollux_reference import simulate_pollux_reference
from repro.baselines.reference import average_jct
from repro.experiments.harness import ExperimentTable
from repro.telemetry.runspec import RunSpec

DEFAULT_INTERVALS_MINUTES = (1.0, 2.0, 4.0, 8.0)


def run_fig3(
    intervals_minutes: Sequence[float] = DEFAULT_INTERVALS_MINUTES,
    num_jobs: int = 160,
    jobs_per_hour: float = 20.0,
    num_nodes: int = 16,
    seed: int = 0,
) -> ExperimentTable:
    """Average JCT of Pollux-in-Blox vs the reference Pollux for each interval."""
    table = ExperimentTable(
        name="fig3-pollux-repro",
        description=(
            "Average JCT (hours) of the Blox Pollux implementation vs an independent "
            "reference implementation while varying the scheduling interval."
        ),
    )
    base = RunSpec(
        policy="pollux",
        workload="pollux",
        seed=seed,
        num_jobs=num_jobs,
        jobs_per_hour=jobs_per_hour,
        num_nodes=num_nodes,
    )
    for minutes in intervals_minutes:
        spec = replace(base, round_duration=minutes * 60.0)
        blox_result = spec.build().run()
        reference_jobs = simulate_pollux_reference(
            spec.trace().fresh_jobs(),
            total_gpus=spec.num_nodes * spec.gpus_per_node,
            round_duration=spec.round_duration,
        )
        blox_jct_h = blox_result.avg_jct() / 3600.0
        reference_jct_h = average_jct(reference_jobs) / 3600.0
        deviation = 0.0
        if reference_jct_h > 0:
            deviation = abs(blox_jct_h - reference_jct_h) / reference_jct_h
        table.add_row(
            interval_minutes=minutes,
            blox_avg_jct_hours=blox_jct_h,
            reference_avg_jct_hours=reference_jct_h,
            relative_deviation=deviation,
        )
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_fig3().to_text())
