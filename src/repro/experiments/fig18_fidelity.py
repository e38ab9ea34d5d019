"""Figure 18: simulation-vs-cluster fidelity of the shared scheduling loop.

The paper validates Blox's "same policy code in simulation and deployment"
claim by running identical workloads through the simulator and on a real
cluster and comparing JCT statistics.  Here the deployment path is the
in-process CentralScheduler (RPC launch/preempt, optimistic leases) driven by
the :class:`~repro.simulator.overheads.ClusterOverheadModel`, which adds the
profiled launch costs plus seeded run-to-run jitter -- the regime a real
cluster exhibits.  The experiment reports, per policy, average and p95 JCT
for both paths and their relative deviation, which should sit within a few
per cent (the paper reports <~5% average-JCT error).
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Optional, Sequence

from repro.experiments.harness import ExperimentTable
from repro.metrics.summary import percentile
from repro.simulator.overheads import ClusterOverheadModel
from repro.telemetry.runspec import RunSpec

#: Scheduling policy -> the placement it runs with.
POLICIES = {
    "fifo": "consolidated",
    "srtf": "consolidated",
    "tiresias": "tiresias-placement",
}


def run_fig18(
    policies: Sequence[str] = ("fifo", "srtf", "tiresias"),
    num_jobs: int = 60,
    jobs_per_hour: float = 6.0,
    num_nodes: int = 8,
    seed: int = 0,
    jitter_seed: int = 1,
    round_duration: float = 300.0,
    lease_protocol: str = "optimistic",
) -> ExperimentTable:
    """Average/p95 JCT: plain simulation vs the deployment ("cluster") path."""
    table = ExperimentTable(
        name="fig18-fidelity",
        description=(
            "JCT statistics (hours) of the shared scheduling loop through plain "
            "simulation and through the RPC deployment path with cluster-style "
            "overheads and jitter; relative deviation per policy."
        ),
    )
    base = RunSpec(
        seed=seed,
        num_jobs=num_jobs,
        jobs_per_hour=jobs_per_hour,
        num_nodes=num_nodes,
        round_duration=round_duration,
    )
    for name in policies:
        spec = replace(base, policy=name, placement=POLICIES[name])
        sim = spec.build().run()
        deployment = replace(spec, mode="runtime").build(
            lease_protocol=lease_protocol,
            overhead_model=ClusterOverheadModel(seed=jitter_seed),
        )
        cluster = deployment.run()
        sim_jcts, cluster_jcts = sim.jcts(), cluster.jcts()
        sim_avg = sim.avg_jct() / 3600.0
        cluster_avg = cluster.avg_jct() / 3600.0
        deviation = abs(cluster_avg - sim_avg) / sim_avg if sim_avg > 0 else 0.0
        table.add_row(
            policy=name,
            sim_avg_jct_hours=sim_avg,
            cluster_avg_jct_hours=cluster_avg,
            avg_jct_deviation=deviation,
            sim_p95_jct_hours=percentile(sim_jcts, 95.0) / 3600.0,
            cluster_p95_jct_hours=percentile(cluster_jcts, 95.0) / 3600.0,
            lease_rounds=len(deployment.lease_latencies_ms()),
        )
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fig18_fidelity",
        description="Reproduce the simulation-vs-cluster fidelity comparison (Fig. 18).",
    )
    parser.add_argument("--num-jobs", type=int, default=60)
    parser.add_argument("--num-nodes", type=int, default=8)
    parser.add_argument(
        "--policy", action="append", choices=sorted(POLICIES), default=None
    )
    args = parser.parse_args(argv)
    policies: Optional[Sequence[str]] = args.policy or ("fifo", "srtf", "tiresias")
    print(
        run_fig18(
            policies=policies, num_jobs=args.num_jobs, num_nodes=args.num_nodes
        ).to_text()
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
