"""Figure 4: reproducing Tiresias -- JCT CDF of Blox-Tiresias vs the reference.

The paper compares the CDF of JCTs produced by the Tiresias implementation in
Blox with the Tiresias open-source simulator on the Tiresias trace.  Here the
independent reference implementation stands in for the open-source simulator;
the experiment reports both CDFs plus quantile-level differences.
"""

from __future__ import annotations

from repro.baselines.reference import jct_list
from repro.baselines.tiresias_reference import simulate_tiresias_reference
from repro.experiments.harness import ExperimentTable
from repro.metrics.summary import percentile
from repro.telemetry.runspec import RunSpec

QUANTILES = (25.0, 50.0, 75.0, 90.0)


def run_fig4(
    num_jobs: int = 60,
    jobs_per_hour: float = 6.0,
    num_nodes: int = 16,
    seed: int = 0,
    round_duration: float = 300.0,
) -> ExperimentTable:
    """Quantiles of the JCT distribution: Blox Tiresias vs reference Tiresias."""
    table = ExperimentTable(
        name="fig4-tiresias-repro",
        description=(
            "JCT distribution quantiles (hours) of Blox's Tiresias vs an independent "
            "discrete-LAS reference simulator on a Tiresias-style trace."
        ),
    )
    spec = RunSpec(
        policy="tiresias",
        placement="tiresias-placement",
        workload="tiresias",
        seed=seed,
        num_jobs=num_jobs,
        jobs_per_hour=jobs_per_hour,
        num_nodes=num_nodes,
        round_duration=round_duration,
    )
    blox_result = spec.build().run()
    reference_jobs = simulate_tiresias_reference(
        spec.trace().fresh_jobs(),
        total_gpus=spec.num_nodes * spec.gpus_per_node,
        round_duration=spec.round_duration,
    )
    blox_jcts = blox_result.jcts()
    reference_jcts = jct_list(reference_jobs)
    table.metadata["blox_jcts"] = sorted(blox_jcts)
    table.metadata["reference_jcts"] = reference_jcts
    for q in QUANTILES:
        blox_q = percentile(blox_jcts, q) / 3600.0
        ref_q = percentile(reference_jcts, q) / 3600.0
        deviation = abs(blox_q - ref_q) / ref_q if ref_q > 0 else 0.0
        table.add_row(
            quantile=q,
            blox_jct_hours=blox_q,
            reference_jct_hours=ref_q,
            relative_deviation=deviation,
        )
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_fig4().to_text())
