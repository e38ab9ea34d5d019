"""Summary statistics used across the paper's figures.

All the evaluation figures report either an average (JCT, responsiveness) or a
CDF of job completion times.  These helpers are deliberately dependency-light
(plain Python lists in, plain Python numbers out) so they can be used from
benchmarks and tests without importing the whole simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.job import Job


def average(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty input (so plots of empty sweeps don't crash)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def cdf_points(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Return ``(sorted_values, cumulative_fractions)`` for a CDF plot."""
    ordered = sorted(values)
    n = len(ordered)
    fractions = [(i + 1) / n for i in range(n)] if n else []
    return ordered, fractions


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate statistics over a set of finished jobs."""

    count: int
    avg_jct: float
    median_jct: float
    p95_jct: float
    avg_responsiveness: float
    makespan: float
    avg_preemptions: float
    p99_jct: float = 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "avg_jct": self.avg_jct,
            "median_jct": self.median_jct,
            "p95_jct": self.p95_jct,
            "p99_jct": self.p99_jct,
            "avg_responsiveness": self.avg_responsiveness,
            "makespan": self.makespan,
            "avg_preemptions": self.avg_preemptions,
        }


def jct_summary(jobs: Sequence[Job], tracked_ids: Optional[Sequence[int]] = None) -> SummaryStats:
    """Compute the paper's headline metrics over finished jobs.

    ``tracked_ids`` restricts the computation to a subset of jobs (the paper
    tracks jobs 3000-4000 of the Philly trace to measure steady-state
    behaviour); jobs in the subset that never finished are ignored.
    """
    if tracked_ids is not None:
        wanted = set(tracked_ids)
        jobs = [j for j in jobs if j.job_id in wanted]
    finished = [j for j in jobs if j.completion_time is not None]
    jcts = [j.job_completion_time() for j in finished]
    responsiveness = [j.responsiveness() for j in finished if j.responsiveness() is not None]
    makespan = 0.0
    if finished:
        makespan = max(j.completion_time for j in finished) - min(j.arrival_time for j in finished)
    return SummaryStats(
        count=len(finished),
        avg_jct=average(jcts),
        median_jct=percentile(jcts, 50),
        p95_jct=percentile(jcts, 95),
        p99_jct=percentile(jcts, 99),
        avg_responsiveness=average(responsiveness),
        makespan=makespan,
        avg_preemptions=average([j.num_preemptions for j in finished]),
    )


def capacity_weighted_utilization(round_log: Sequence[object]) -> float:
    """Time-integrated busy capacity over time-integrated healthy capacity.

    ``round_log`` is a sequence of round records carrying ``busy_capacity``
    and ``healthy_capacity`` (see
    :class:`~repro.simulator.engine.RoundRecord`; duck-typed here to keep
    this module free of simulator imports).  Weighting by per-round healthy
    capacity -- rather than averaging per-round ratios -- makes the number
    robust to rounds where most of the cluster is failed or scaled in: an
    empty cluster contributes nothing instead of a misleading 0% or 100%.
    """
    busy = 0.0
    healthy = 0.0
    for record in round_log:
        busy += record.busy_capacity
        healthy += record.healthy_capacity
    if healthy <= 0:
        return 0.0
    return busy / healthy


@dataclass(frozen=True)
class ScenarioSummary:
    """Per-scenario report row: JCT distribution plus churn-facing metrics."""

    stats: SummaryStats
    preemption_count: int
    eviction_count: int
    capacity_weighted_utilization: float

    def as_dict(self) -> dict:
        out = self.stats.as_dict()
        out["preemption_count"] = self.preemption_count
        out["eviction_count"] = self.eviction_count
        out["capacity_weighted_utilization"] = self.capacity_weighted_utilization
        return out


def scenario_summary(
    jobs: Sequence[Job],
    tracked_ids: Optional[Sequence[int]],
    round_log: Sequence[object],
    eviction_count: int = 0,
) -> ScenarioSummary:
    """Aggregate one scenario run into the metrics the scenario matrix reports.

    ``eviction_count`` is the number of running jobs kicked off their GPUs by
    cluster events (node failures, scale-in, upgrades), as counted by the
    simulation engine; ``preemption_count`` additionally includes
    policy-initiated preemptions.  Both are whole-run totals over *all* jobs
    (the engine cannot attribute an eviction to the tracked subset), so
    ``preemption_count >= eviction_count`` always holds; only the JCT
    statistics honour ``tracked_ids``.
    """
    return ScenarioSummary(
        stats=jct_summary(jobs, tracked_ids),
        preemption_count=sum(j.num_preemptions for j in jobs),
        eviction_count=eviction_count,
        capacity_weighted_utilization=capacity_weighted_utilization(round_log),
    )


@dataclass(frozen=True)
class FaultStats:
    """Fault-injection and recovery counters of one chaos-exposed run.

    One record covers both halves of the robustness layer
    (``docs/robustness.md``): the control-plane RPC fault injector
    (:class:`~repro.runtime.rpc.FaultPlan` -- drops, delays, duplicates,
    lost replies, and the retries/dedups that absorb them) and the federation
    shard supervisor (worker restarts, checkpoints, replayed commands, and
    the graceful-degradation counters).  Runs without chaos report all
    zeros; a gated chaos run asserts the relevant counters are *nonzero*,
    so a silently disabled injector cannot masquerade as a passing gate.
    """

    # -- control-plane RPC fault injection (runtime layer) -------------
    rpc_calls: int = 0
    faults_injected: int = 0
    drops: int = 0
    delays: int = 0
    duplicates: int = 0
    lost_replies: int = 0
    retries: int = 0
    duplicates_suppressed: int = 0
    #: Calls that failed even after every retry (aborts the run).
    exhausted: int = 0
    # -- federation shard supervision (worker recovery) -----------------
    worker_restarts: int = 0
    checkpoints: int = 0
    replayed_commands: int = 0
    dead_shards: int = 0
    rerouted_jobs: int = 0
    lost_jobs: int = 0

    def as_dict(self) -> dict:
        return {
            "rpc_calls": self.rpc_calls,
            "faults_injected": self.faults_injected,
            "drops": self.drops,
            "delays": self.delays,
            "duplicates": self.duplicates,
            "lost_replies": self.lost_replies,
            "retries": self.retries,
            "duplicates_suppressed": self.duplicates_suppressed,
            "exhausted": self.exhausted,
            "worker_restarts": self.worker_restarts,
            "checkpoints": self.checkpoints,
            "replayed_commands": self.replayed_commands,
            "dead_shards": self.dead_shards,
            "rerouted_jobs": self.rerouted_jobs,
            "lost_jobs": self.lost_jobs,
        }

    def any_recovery(self) -> bool:
        """Whether any fault was actually absorbed (the chaos-gate predicate)."""
        return (
            self.retries > 0
            or self.duplicates_suppressed > 0
            or self.worker_restarts > 0
            or self.rerouted_jobs > 0
        )


@dataclass(frozen=True)
class FederationTiming:
    """Wall-time breakdown of one federation run.

    ``routing_time_s`` is the serialised parent-side section (router decisions
    plus gang submission); ``advance_time_s`` is the time spent advancing and
    draining shards -- in parallel mode, the parent's wait on the slowest
    shard per lockstep step.  ``shard_busy_time_s`` is each shard's own
    in-loop execution time; its max/sum ratio bounds the achievable parallel
    speedup (the lockstep barrier waits for the slowest shard at every routing
    event).  ``workers`` is the number of worker processes (0 = shards ran
    in the driver's process).
    """

    wall_time_s: float
    routing_time_s: float
    advance_time_s: float
    shard_busy_time_s: Tuple[float, ...] = ()
    workers: int = 0

    def as_dict(self) -> dict:
        return {
            "wall_time_s": self.wall_time_s,
            "routing_time_s": self.routing_time_s,
            "advance_time_s": self.advance_time_s,
            "shard_busy_time_s": list(self.shard_busy_time_s),
            "workers": self.workers,
        }


@dataclass(frozen=True)
class FederationSummary:
    """Aggregate report over the shards of one federation run.

    ``shards`` carries one :class:`ScenarioSummary` per shard (empty shards
    included -- their JCT stats are all zero with ``count=0``); ``pooled``
    recomputes the JCT distribution over the union of all shards' jobs, which
    is *not* derivable from the per-shard percentiles.  The pooled
    capacity-weighted utilisation divides summed busy integrals by summed
    healthy integrals across every shard's round log, so an idle shard drags
    the federation number down instead of vanishing from an average of
    ratios.
    """

    shards: Tuple[ScenarioSummary, ...]
    pooled: SummaryStats
    #: Jobs *routed* to each shard (finished or not, tracked or not) -- the
    #: same quantity :meth:`repro.federation.engine.FederationResult.jobs_per_shard`
    #: reports; per-shard finished-tracked counts live in
    #: ``shards[i].stats.count``.
    jobs_per_shard: Tuple[int, ...]
    preemption_count: int
    eviction_count: int
    capacity_weighted_utilization: float
    #: max/mean of routed jobs per shard; 1.0 is perfectly balanced,
    #: ``num_shards`` is everything on one shard, 0.0 if nothing was routed.
    routing_imbalance: float
    #: Wall-time breakdown of the run, when the engine measured one.
    timing: Optional[FederationTiming] = None

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def as_dict(self) -> dict:
        out = self.pooled.as_dict()
        out["num_shards"] = self.num_shards
        out["jobs_per_shard"] = list(self.jobs_per_shard)
        out["preemption_count"] = self.preemption_count
        out["eviction_count"] = self.eviction_count
        out["capacity_weighted_utilization"] = self.capacity_weighted_utilization
        out["routing_imbalance"] = self.routing_imbalance
        if self.timing is not None:
            out["timing"] = self.timing.as_dict()
        out["shards"] = [shard.as_dict() for shard in self.shards]
        return out


def federation_summary(
    shard_jobs: Sequence[Sequence[Job]],
    shard_round_logs: Sequence[Sequence[object]],
    shard_eviction_counts: Optional[Sequence[int]] = None,
    tracked_ids: Optional[Sequence[int]] = None,
    timing: Optional[FederationTiming] = None,
) -> FederationSummary:
    """Aggregate per-shard runs into one :class:`FederationSummary`.

    Inputs are parallel sequences, one entry per shard; a shard that was
    never routed a job contributes an empty job list (and its round log of
    idle rounds still weighs into the pooled utilisation).  ``tracked_ids``
    restricts every JCT statistic -- per shard and pooled -- to the global
    tracked window; per-shard summaries simply see the subset of tracked ids
    that landed on them.
    """
    if len(shard_jobs) != len(shard_round_logs):
        raise ValueError(
            f"shard_jobs ({len(shard_jobs)}) and shard_round_logs "
            f"({len(shard_round_logs)}) must have one entry per shard"
        )
    if shard_eviction_counts is None:
        shard_eviction_counts = [0] * len(shard_jobs)
    if len(shard_eviction_counts) != len(shard_jobs):
        raise ValueError(
            f"shard_eviction_counts ({len(shard_eviction_counts)}) must have "
            f"one entry per shard ({len(shard_jobs)})"
        )
    shards = tuple(
        scenario_summary(jobs, tracked_ids, round_log, eviction_count=evictions)
        for jobs, round_log, evictions in zip(
            shard_jobs, shard_round_logs, shard_eviction_counts
        )
    )
    pooled_jobs = [job for jobs in shard_jobs for job in jobs]
    pooled = jct_summary(pooled_jobs, tracked_ids)
    # Concatenating the logs pools the busy/healthy integrals: the helper
    # sums both across all records before dividing.
    pooled_log = [record for round_log in shard_round_logs for record in round_log]
    counts = tuple(len(jobs) for jobs in shard_jobs)
    mean_count = sum(counts) / len(counts) if counts else 0.0
    imbalance = max(counts) / mean_count if mean_count > 0 else 0.0
    return FederationSummary(
        shards=shards,
        pooled=pooled,
        jobs_per_shard=counts,
        preemption_count=sum(shard.preemption_count for shard in shards),
        eviction_count=sum(shard.eviction_count for shard in shards),
        capacity_weighted_utilization=capacity_weighted_utilization(pooled_log),
        routing_imbalance=imbalance,
        timing=timing,
    )
