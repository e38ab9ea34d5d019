"""Figure 5: reproducing Synergy -- Proportional vs Synergy-Tune JCT CDFs.

The paper reproduces Figure 9(b) of the Synergy OSDI '22 paper: the CDF of job
completion times under Synergy's Proportional and Tune policies on the Philly
trace, and shows Blox's implementation matches the original.  This runner
produces both policies' JCT distributions from the Blox-style implementation
and from the independent reference simulator.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.reference import jct_list
from repro.baselines.synergy_reference import simulate_synergy_reference
from repro.experiments.harness import ExperimentTable
from repro.metrics.summary import average, percentile
from repro.telemetry.runspec import RunSpec


def run_fig5(
    num_jobs: int = 200,
    jobs_per_hour: float = 6.0,
    num_nodes: int = 32,
    seed: int = 0,
    round_duration: float = 300.0,
) -> ExperimentTable:
    """Average and median JCT of Proportional vs Tune, Blox vs reference."""
    table = ExperimentTable(
        name="fig5-synergy-repro",
        description=(
            "JCT statistics (hours) for Synergy Proportional vs Synergy-Tune, comparing the "
            "Blox implementation against an independent reference implementation."
        ),
    )
    base = RunSpec(
        policy="synergy",
        seed=seed,
        num_jobs=num_jobs,
        jobs_per_hour=jobs_per_hour,
        num_nodes=num_nodes,
        round_duration=round_duration,
    )
    for mode in ("proportional", "tune"):
        spec = replace(base, placement=f"synergy-{mode}")
        blox_result = spec.build().run()
        reference_jobs = simulate_synergy_reference(
            spec.trace().fresh_jobs(),
            total_gpus=spec.num_nodes * spec.gpus_per_node,
            mode=mode,
            round_duration=spec.round_duration,
        )
        blox_jcts = blox_result.jcts()
        reference_jcts = jct_list(reference_jobs)
        table.metadata[f"blox_jcts_{mode}"] = sorted(blox_jcts)
        table.metadata[f"reference_jcts_{mode}"] = reference_jcts
        table.add_row(
            mode=mode,
            implementation="blox",
            avg_jct_hours=average(blox_jcts) / 3600.0,
            median_jct_hours=percentile(blox_jcts, 50) / 3600.0,
        )
        table.add_row(
            mode=mode,
            implementation="reference",
            avg_jct_hours=average(reference_jcts) / 3600.0,
            median_jct_hours=percentile(reference_jcts, 50) / 3600.0,
        )
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_fig5().to_text())
