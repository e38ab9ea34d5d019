"""The seeded benchmark workload: a 256-GPU Philly-style load scenario.

The benchmark mirrors the setup of the paper's load-sweep experiments
(Fig. 8-9): a homogeneous V100 cluster of 4-GPU nodes and a Poisson
Philly-like trace sized to keep the cluster busy (~70% offered load) with a
heavy-tailed duration distribution, so the simulation exercises both the
contended regime (long queues, many placement decisions per round) and the
drain regime (a few stragglers running alone for thousands of rounds -- the
regime event skipping targets).  Everything is seeded so the baseline and the
indexed run replay exactly the same scenario.
"""

from __future__ import annotations

from repro.cluster.builder import build_cluster
from repro.core.cluster_state import ClusterState
from repro.workloads.philly import generate_philly_trace
from repro.workloads.trace import Trace

BENCH_SEED = 20240301

#: Full benchmark: 64 nodes x 4 V100 = 256 GPUs.
FULL_NODES = 64
FULL_JOBS = 600
FULL_JOBS_PER_HOUR = 8.0

#: Smoke benchmark (CI): 8 nodes x 4 = 32 GPUs, a few dozen jobs.
SMOKE_NODES = 8
SMOKE_JOBS = 60
SMOKE_JOBS_PER_HOUR = 4.0

GPUS_PER_NODE = 4
ROUND_DURATION = 300.0

#: Long-horizon benchmark: 30 days of Philly arrivals (180 jobs at 0.25
#: jobs/hour = 720 h) at low offered load on a 64-GPU cluster with
#: fine-grained 60 s rounds.  Low load means long decision-free stretches
#: (single-job drains, idle gaps) and fine rounds mean many rounds per
#: stretch -- the regime where the event core's O(events) skipping separates
#: from the stepping loop's O(rounds) execution.  The load is the honest knob
#: here: arrivals and completions (the full rounds both runs share) are the
#: irreducible cost, so the separation measures skipped-round execution and
#: nothing else.
LONG_NODES = 16
LONG_JOBS = 180
LONG_JOBS_PER_HOUR = 0.25
LONG_ROUND_DURATION = 60.0

#: Smoke variant of the long-horizon cell: 5 days of arrivals (30 jobs at
#: 0.25 jobs/hour = 120 h), same round granularity and load shape.
LONG_SMOKE_NODES = 8
LONG_SMOKE_JOBS = 30
LONG_SMOKE_JOBS_PER_HOUR = 0.25
LONG_SMOKE_ROUND_DURATION = 60.0


def bench_cluster(smoke: bool = False) -> ClusterState:
    """Build a fresh benchmark cluster (new state object per run)."""
    return build_cluster(
        num_nodes=SMOKE_NODES if smoke else FULL_NODES,
        gpus_per_node=GPUS_PER_NODE,
        gpu_type="v100",
        network_bw_gbps=10.0,
    )


def bench_trace(smoke: bool = False) -> Trace:
    """Generate the seeded Philly-style benchmark trace."""
    if smoke:
        return generate_philly_trace(
            num_jobs=SMOKE_JOBS, jobs_per_hour=SMOKE_JOBS_PER_HOUR, seed=BENCH_SEED
        )
    return generate_philly_trace(
        num_jobs=FULL_JOBS, jobs_per_hour=FULL_JOBS_PER_HOUR, seed=BENCH_SEED
    )


def long_horizon_cluster(smoke: bool = False) -> ClusterState:
    """Build a fresh long-horizon benchmark cluster."""
    return build_cluster(
        num_nodes=LONG_SMOKE_NODES if smoke else LONG_NODES,
        gpus_per_node=GPUS_PER_NODE,
        gpu_type="v100",
        network_bw_gbps=10.0,
    )


def long_horizon_trace(smoke: bool = False) -> Trace:
    """Generate the seeded 30-day (5-day smoke) low-load Philly trace."""
    if smoke:
        return generate_philly_trace(
            num_jobs=LONG_SMOKE_JOBS,
            jobs_per_hour=LONG_SMOKE_JOBS_PER_HOUR,
            seed=BENCH_SEED,
        )
    return generate_philly_trace(
        num_jobs=LONG_JOBS, jobs_per_hour=LONG_JOBS_PER_HOUR, seed=BENCH_SEED
    )


def long_horizon_round_duration(smoke: bool = False) -> float:
    """Round duration of the long-horizon cell."""
    return LONG_SMOKE_ROUND_DURATION if smoke else LONG_ROUND_DURATION
