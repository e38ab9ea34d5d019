"""The seeded benchmark workload: a 256-GPU Philly-style load scenario.

The benchmark mirrors the setup of the paper's load-sweep experiments
(Fig. 8-9): a homogeneous V100 cluster of 4-GPU nodes and a Poisson
Philly-like trace sized to keep the cluster busy (~70% offered load) with a
heavy-tailed duration distribution, so the simulation exercises both the
contended regime (long queues, many placement decisions per round) and the
drain regime (a few stragglers running alone for thousands of rounds -- the
regime event skipping targets).  Everything is seeded so the baseline and the
indexed run replay exactly the same scenario.  The workloads are plain
:class:`~repro.telemetry.runspec.RunSpec` presets.
"""

from __future__ import annotations

from repro.telemetry.runspec import RunSpec

BENCH_SEED = 20240301

#: Full benchmark: 64 nodes x 4 V100 = 256 GPUs, FIFO + consolidated, 300 s
#: rounds.  Benches swap policy, placement, mode or shard layout with
#: ``dataclasses.replace`` and build everything through the spec
#: (``spec.trace()``, ``spec.cluster()``, ``spec.build()``).
FULL = RunSpec(seed=BENCH_SEED, num_jobs=600, jobs_per_hour=8.0, num_nodes=64)

#: Smoke benchmark (CI): 8 nodes x 4 = 32 GPUs, a few dozen jobs.
SMOKE = RunSpec(seed=BENCH_SEED, num_jobs=60, jobs_per_hour=4.0, num_nodes=8)

#: Long-horizon benchmark: 30 days of Philly arrivals (180 jobs at 0.25
#: jobs/hour = 720 h) at low offered load on a 64-GPU cluster with
#: fine-grained 60 s rounds.  Low load means long decision-free stretches
#: (single-job drains, idle gaps) and fine rounds mean many rounds per
#: stretch -- the regime where the skip executor's O(events) skipping separates
#: from the stepping loop's O(rounds) execution.  The load is the honest knob
#: here: arrivals and completions (the full rounds both runs share) are the
#: irreducible cost, so the separation measures skipped-round execution and
#: nothing else.
LONG_HORIZON = RunSpec(
    seed=BENCH_SEED, num_jobs=180, jobs_per_hour=0.25, num_nodes=16, round_duration=60.0
)

#: Smoke variant of the long-horizon cell: 5 days of arrivals (30 jobs at
#: 0.25 jobs/hour = 120 h), same round granularity and load shape.
LONG_HORIZON_SMOKE = RunSpec(
    seed=BENCH_SEED, num_jobs=30, jobs_per_hour=0.25, num_nodes=8, round_duration=60.0
)
