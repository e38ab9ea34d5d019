"""The federation driver: N shards, one router, one global arrival stream.

:class:`FederationEngine` coordinates independent shard scheduling loops
(:class:`~repro.federation.shard.ShardSimulator`) around a single global job
stream.  The only cross-shard interaction is *routing*: at each arrival the
router picks a shard, the gang enters that shard's wait queue, and from then
on the shard schedules it with its own policy stack, clock and (optional)
scenario timeline, exactly as a standalone cluster would.

Execution model
---------------

Shards advance in lockstep between routing events.  The global clock is the
shared round grid (all shards must use the same ``round_duration`` and start
at time zero); for each pending arrival at time ``t`` the engine advances
every shard to the top of the first round at or after ``t`` -- each shard
fast-forwarding independently, bounded by its own scenario events *and* the
routing event (the :class:`~repro.federation.shard.BoundedClusterManager`
bound) -- then routes every gang whose arrival time has been reached, in
global ``(arrival_time, job_id)`` order.  Once the stream is exhausted the
shards drain independently to their own completion times.

The loop itself is written against a :class:`ShardBackend` -- ``advance``,
``submit``, ``finish`` -- with two implementations: the in-process
:class:`LocalShardBackend` here, and the multiprocess worker pool in
:mod:`repro.federation.parallel`.  Routing consumes only the
:class:`~repro.federation.router.ShardViewSummary` messages the backend
returns, and same-round refreshes go through
:meth:`~repro.federation.router.ShardViewSummary.with_queued` on the parent
side in both cases, so the two backends feed routers byte-for-byte identical
inputs.

Determinism and parity: shard states at every pause point are bit-identical
between fast-forward and per-round stepping (the simulator's parity
guarantee), routers are deterministic functions of those states, hence the
*routing decisions* -- and therefore every per-shard schedule -- are
identical too, serial or parallel.  ``python -m repro.bench --federation``
checks this for every router x shard-count cell, and additionally checks
serial == parallel for the worker-pool cells.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.builder import build_cluster
from repro.core.abstractions import ClusterManager
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.job import Job
from repro.federation.router import FederationRouter, ShardViewSummary
from repro.federation.shard import ShardSimulator
from repro.metrics.summary import (
    FaultStats,
    FederationSummary,
    FederationTiming,
    SummaryStats,
    federation_summary,
    jct_summary,
)
from repro.simulator.engine import SimulationResult
from repro.telemetry.events import (
    EVENT_FEDERATION,
    EVENT_ROUTE,
    EVENT_TIMING,
    TraceHeader,
)
from repro.telemetry.recorder import DEFAULT_FEDERATION_INTERVAL, TraceRecorder

__all__ = [
    "FederationEngine",
    "FederationResult",
    "FederationStreamResult",
    "ShardFinishStats",
    "ShardBackend",
    "LocalShardBackend",
    "UniformShardFactory",
    "ScenarioManagerFactory",
    "drive_federation",
    "DriveStats",
]


@dataclass
class FederationResult:
    """Everything a federation experiment needs after the run finished."""

    shard_results: List[SimulationResult]
    #: job id -> shard index, for every routed job.
    assignments: Dict[int, int]
    tracked_job_ids: List[int]
    router_name: str
    round_duration: float
    #: Wall-clock seconds of the whole federation run (shard execution plus
    #: routing); the per-shard ``wall_time_s`` fields sum to slightly less.
    wall_time_s: float = 0.0
    #: Wall-clock seconds the driver spent inside router decisions and gang
    #: submission (the serialised, parent-side section of the loop).
    routing_time_s: float = 0.0
    #: Wall-clock seconds spent advancing/draining shards (lockstep
    #: ``advance`` plus the final ``finish``); in parallel mode this is the
    #: parent's wait, bounded below by the slowest shard per step.
    advance_time_s: float = 0.0
    #: Worker processes that executed the shards; 0 means they ran in the
    #: driver's own process.
    workers: int = 0
    #: Fault-injection/recovery counters when the run was supervised
    #: (``docs/robustness.md``); ``None`` for unsupervised runs.
    fault_stats: Optional[FaultStats] = None

    @property
    def num_shards(self) -> int:
        return len(self.shard_results)

    def total_rounds(self) -> int:
        """Rounds executed across all shards (the federation's work unit)."""
        return sum(result.rounds for result in self.shard_results)

    def shard_busy_time_s(self) -> List[float]:
        """Per-shard simulator wall time: the straggler/balance profile.

        Each entry is the shard's own in-loop execution time.  In parallel
        mode ``max``/``sum`` of this bounds the achievable speedup (the
        lockstep barrier waits for the slowest shard at every routing event).
        """
        return [result.wall_time_s for result in self.shard_results]

    def jobs(self) -> List[Job]:
        """All jobs across shards, sorted by job id."""
        pooled = [job for result in self.shard_results for job in result.jobs]
        return sorted(pooled, key=lambda j: j.job_id)

    def jobs_per_shard(self) -> List[int]:
        counts = [0] * len(self.shard_results)
        for shard_index in self.assignments.values():
            counts[shard_index] += 1
        return counts

    def pooled_stats(self) -> SummaryStats:
        """Headline JCT statistics over the tracked jobs of every shard."""
        return jct_summary(self.jobs(), self.tracked_job_ids)

    def makespan(self) -> float:
        return self.pooled_stats().makespan

    def avg_jct(self) -> float:
        return self.pooled_stats().avg_jct

    def timing(self) -> FederationTiming:
        """Wall-time breakdown (routing vs advancing vs per-shard busy)."""
        return FederationTiming(
            wall_time_s=self.wall_time_s,
            routing_time_s=self.routing_time_s,
            advance_time_s=self.advance_time_s,
            shard_busy_time_s=tuple(self.shard_busy_time_s()),
            workers=self.workers,
        )

    def summary(self) -> FederationSummary:
        """Aggregate per-shard scenario summaries plus pooled statistics."""
        return federation_summary(
            shard_jobs=[result.jobs for result in self.shard_results],
            shard_round_logs=[result.round_log for result in self.shard_results],
            shard_eviction_counts=[result.eviction_count for result in self.shard_results],
            tracked_ids=self.tracked_job_ids,
            timing=self.timing(),
        )


@dataclass(frozen=True)
class ShardFinishStats:
    """Compact in-worker reduction of one shard's finished run.

    The streaming finish payload: everything the parent reports without
    holding the shard's jobs or round log (a 64-shard, 100k-job run would
    otherwise ship every job object back through the pipes it just avoided
    keeping).
    """

    shard_id: int
    rounds: int
    jobs: int
    finished_jobs: int
    eviction_count: int
    preemption_count: int
    stats: SummaryStats
    wall_time_s: float


def summarize_finished(shard_id: int, result: SimulationResult) -> ShardFinishStats:
    """The streaming ``finish`` reduction: one shard result to statistics."""
    return ShardFinishStats(
        shard_id=shard_id,
        rounds=result.rounds,
        jobs=len(result.jobs),
        finished_jobs=sum(1 for j in result.jobs if j.completion_time is not None),
        eviction_count=result.eviction_count,
        preemption_count=sum(j.num_preemptions for j in result.jobs),
        stats=jct_summary(result.jobs),
        wall_time_s=result.wall_time_s,
    )


@dataclass
class FederationStreamResult:
    """Result of a streaming (memory-bounded) federation run.

    Unlike :class:`~repro.federation.engine.FederationResult` this never holds
    job objects or round logs: per-shard statistics are reduced where the
    shard lives and only :class:`ShardFinishStats` crosses back.  Percentile
    metrics therefore exist per shard but not pooled (percentiles are not
    mergeable); the pooled numbers below are the exactly mergeable ones.
    """

    shard_stats: List[ShardFinishStats]
    jobs_per_shard: List[int]
    router_name: str
    round_duration: float
    total_jobs: int
    wall_time_s: float
    routing_time_s: float
    advance_time_s: float
    workers: int
    #: Parent-process peak RSS at the end of the run, in MiB (the streaming
    #: claim under test: independent of trace length).
    peak_rss_mib: float = 0.0
    #: Recovery counters when the run was supervised; None otherwise.
    fault_stats: Optional[FaultStats] = None

    @property
    def num_shards(self) -> int:
        return len(self.shard_stats)

    def total_rounds(self) -> int:
        return sum(s.rounds for s in self.shard_stats)

    def finished_jobs(self) -> int:
        return sum(s.finished_jobs for s in self.shard_stats)

    def avg_jct(self) -> float:
        """Exact pooled mean JCT (count-weighted merge of per-shard means)."""
        finished = self.finished_jobs()
        if finished == 0:
            return 0.0
        weighted = sum(s.stats.avg_jct * s.finished_jobs for s in self.shard_stats)
        return weighted / finished

    def makespan(self) -> float:
        """Upper bound on the pooled makespan: max over per-shard makespans."""
        if not self.shard_stats:
            return 0.0
        return max(s.stats.makespan for s in self.shard_stats)

    def as_dict(self) -> dict:
        return {
            "router": self.router_name,
            "num_shards": self.num_shards,
            "workers": self.workers,
            "total_jobs": self.total_jobs,
            "finished_jobs": self.finished_jobs(),
            "jobs_per_shard": list(self.jobs_per_shard),
            "total_rounds": self.total_rounds(),
            "avg_jct": self.avg_jct(),
            "makespan": self.makespan(),
            "wall_time_s": self.wall_time_s,
            "routing_time_s": self.routing_time_s,
            "advance_time_s": self.advance_time_s,
            "peak_rss_mib": self.peak_rss_mib,
            "fault_stats": (
                self.fault_stats.as_dict() if self.fault_stats is not None else None
            ),
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "rounds": s.rounds,
                    "jobs": s.jobs,
                    "finished_jobs": s.finished_jobs,
                    "eviction_count": s.eviction_count,
                    "preemption_count": s.preemption_count,
                    "wall_time_s": s.wall_time_s,
                    **{f"stats_{k}": v for k, v in s.stats.as_dict().items()},
                }
                for s in self.shard_stats
            ],
        }


def _peak_rss_mib() -> float:
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        return 0.0


# ----------------------------------------------------------------------
# Backend abstraction: how the drive loop talks to its shards
# ----------------------------------------------------------------------


class ShardBackend:
    """What the routing loop needs from a set of shards.

    Implementations: :class:`LocalShardBackend` (shards live in this process)
    and :class:`repro.federation.parallel.WorkerPoolBackend` (shards live in
    worker processes behind pipes).  The loop only ever sees
    :class:`~repro.federation.router.ShardViewSummary` values, never live
    shard state, which is what makes the two interchangeable bit-for-bit.
    A backend is a context manager: ``__enter__`` is :meth:`start`,
    ``__exit__`` is :meth:`close`.
    """

    num_shards: int
    round_duration: float
    #: Worker processes executing the shards; 0 means this process.
    workers: int = 0

    def start(self) -> None:
        """Acquire backend resources (spawn workers) before the first advance."""

    def advance(self, stop_time: float) -> List[ShardViewSummary]:
        """Advance every shard to the pause point before ``stop_time``.

        Returns one summary per shard, indexed by ``shard_id``.
        """
        raise NotImplementedError

    def submit(self, shard_id: int, job: Job) -> None:
        """Queue ``job`` on a paused shard (applied before its next advance)."""
        raise NotImplementedError

    def finish(self, reduce: Optional[Callable] = None) -> List:
        """Drain every shard to completion and collect its result.

        ``reduce``, a module-level ``(shard_id, SimulationResult) -> object``,
        is applied where the shard lives and its value collected instead
        (streaming runs: the full result never reaches the parent).
        """
        raise NotImplementedError

    def take_orphans(self) -> List[Tuple[Job, int]]:
        """Drain jobs stranded by shards that died since the last call.

        Each entry is ``(job, shard_id_it_was_routed_to)``, ordered by the
        global ``(arrival_time, job_id)`` routing order so re-routing is
        deterministic.  Backends without graceful degradation (the serial
        one, unsupervised pools) never strand jobs and return nothing.
        """
        return []

    def dead_shard_ids(self) -> frozenset:
        """Shards marked dead by graceful degradation (empty when healthy)."""
        return frozenset()

    def fault_stats(self) -> Optional[FaultStats]:
        """Recovery counters of the run; ``None`` where nothing can fail."""
        return None

    def close(self) -> None:
        """Release backend resources (terminate workers); idempotent."""

    def __enter__(self) -> "ShardBackend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def finish_shards(shards: Iterable[ShardSimulator], reduce: Optional[Callable]) -> List:
    """Drain ``shards`` one by one; the body of every backend's ``finish``."""
    if reduce is None:
        return [shard.finish() for shard in shards]
    return [reduce(shard.shard_id, shard.finish()) for shard in shards]


class LocalShardBackend(ShardBackend):
    """The serial backend: shards advanced in-process, one after another."""

    def __init__(self, shards: Sequence[ShardSimulator]) -> None:
        self.shards = list(shards)
        if not self.shards:
            raise ConfigurationError("a federation needs at least one shard")
        for index, shard in enumerate(self.shards):
            if shard.shard_id != index:
                raise ConfigurationError(
                    f"shard at position {index} has shard_id {shard.shard_id}; "
                    "shard ids must equal their position (routers return indexes)"
                )
        durations = {shard.manager.round_duration for shard in self.shards}
        if len(durations) != 1:
            raise ConfigurationError(
                f"shards must share one round_duration for lockstep routing, got {sorted(durations)}"
            )
        self.num_shards = len(self.shards)
        self.round_duration = durations.pop()

    def advance(self, stop_time: float) -> List[ShardViewSummary]:
        for shard in self.shards:
            shard.run_until(stop_time)
        return [shard.view_summary() for shard in self.shards]

    def submit(self, shard_id: int, job: Job) -> None:
        self.shards[shard_id].submit(job)

    def finish(self, reduce: Optional[Callable] = None) -> List:
        return finish_shards(self.shards, reduce)


# ----------------------------------------------------------------------
# The shared drive loop (serial and parallel engines both run this)
# ----------------------------------------------------------------------


@dataclass
class DriveStats:
    """What :func:`drive_federation` measured while routing the stream."""

    #: job id -> shard index; ``None`` when assignment tracking was disabled
    #: (streaming runs keep only the per-shard counters below).
    assignments: Optional[Dict[int, int]]
    jobs_per_shard: List[int]
    routing_time_s: float
    advance_time_s: float
    total_jobs: int


def drive_federation(
    backend: ShardBackend,
    router: FederationRouter,
    arrivals: Iterable[Job],
    record_assignments: bool = True,
    recorder: Optional[TraceRecorder] = None,
) -> DriveStats:
    """Route a sorted arrival stream over a backend's shards.

    ``arrivals`` must be ordered by ``(arrival_time, job_id)`` -- the global
    deterministic routing order -- and may be a lazy iterator: the loop holds
    one lookahead job, so a streaming run's parent-side memory is bounded by
    the routing bookkeeping, not the trace (disable ``record_assignments`` to
    drop the only per-job state).

    Summaries are refreshed *incrementally*: ``backend.advance`` captures one
    summary per shard at each pause point, and between two routing decisions
    at the same pause only the shard that received the previous gang changed
    -- by exactly its queue terms -- so the loop applies
    :meth:`~repro.federation.router.ShardViewSummary.with_queued` to that one
    entry instead of re-materialising every shard's view per gang.

    Graceful degradation: when the backend marks a shard dead (supervised
    worker pool, ``on_unrecoverable="degrade"``), its summary reports zero
    capacity -- the feasibility filter below then excludes it for every gang
    with no special-casing -- and its stranded jobs come back through
    :meth:`ShardBackend.take_orphans`, which the loop re-routes over the
    survivors ahead of new arrivals, in the same deterministic
    ``(arrival_time, job_id)`` order the jobs were first routed in.
    """
    routing_time = 0.0
    advance_time = 0.0
    jobs_per_shard = [0] * backend.num_shards
    assignments: Optional[Dict[int, int]] = {} if record_assignments else None
    total_jobs = 0
    stream: Iterator[Job] = iter(arrivals)
    pending = next(stream, None)
    if pending is None:
        raise ConfigurationError("cannot federate an empty workload")
    last_key = (pending.arrival_time, pending.job_id)
    summaries: List[ShardViewSummary] = []

    def route_one(job: Job) -> None:
        # Feasibility: a gang larger than a shard's entire GPU pool can
        # never be placed there -- routing it would starve it (and the
        # shard's loop) forever, so such shards are not offered.  Dead
        # shards report zero GPUs and fall out of the same test; the
        # explicit dead-set check covers shards that died *after* the last
        # advance, whose summaries still look alive.
        dead = backend.dead_shard_ids()
        feasible = [
            s
            for s in summaries
            if s.total_gpus >= job.num_gpus and s.shard_id not in dead
        ]
        if not feasible:
            raise SimulationError(
                f"job {job.job_id} requests {job.num_gpus} GPUs, more "
                "than any surviving shard owns; no feasible routing exists"
            )
        choice = router.route(job, feasible)
        if choice not in {s.shard_id for s in feasible}:
            raise SimulationError(
                f"router {router.name!r} returned shard {choice} "
                f"for job {job.job_id}, which is not among the "
                f"feasible shards {sorted(s.shard_id for s in feasible)}"
            )
        backend.submit(choice, job)
        summaries[choice] = summaries[choice].with_queued(job)
        jobs_per_shard[choice] += 1
        if assignments is not None:
            assignments[job.job_id] = choice
        if recorder is not None:
            recorder.emit(
                EVENT_ROUTE,
                job.arrival_time,
                {
                    "job_id": job.job_id,
                    "shard": choice,
                    "num_gpus": job.num_gpus,
                },
            )

    def snapshot(now: float) -> None:
        # Deterministic per-shard state digest (no wall-clock fields):
        # queue depths and utilisation come from the same summaries the
        # router reads, so serial and parallel runs snapshot identically.
        recorder.emit(
            EVENT_FEDERATION,
            now,
            {
                "jobs_per_shard": list(jobs_per_shard),
                "queued": [s.queued_jobs for s in summaries],
                "utilization": [round(s.capacity_utilization, 6) for s in summaries],
                "routed_jobs": total_jobs,
            },
        )

    pauses = 0
    now = 0.0
    while pending is not None:
        started = time.perf_counter()
        summaries = list(backend.advance(pending.arrival_time))
        advance_time += time.perf_counter() - started
        # All shards share the round grid, so they pause on the same
        # boundary: the first round start at or after the arrival.
        now = summaries[0].current_time
        pauses += 1
        if recorder is not None and pauses % DEFAULT_FEDERATION_INTERVAL == 0:
            snapshot(now)
        started = time.perf_counter()
        # Jobs stranded by shards that died during that advance are
        # re-routed first: they arrived before anything still pending.
        for orphan, old_shard in backend.take_orphans():
            jobs_per_shard[old_shard] -= 1
            route_one(orphan)
        while pending is not None and pending.arrival_time <= now:
            job = pending
            key = (job.arrival_time, job.job_id)
            if key < last_key:
                raise ConfigurationError(
                    f"arrival stream is not sorted: job {job.job_id} at "
                    f"t={job.arrival_time} follows {last_key}; deterministic "
                    "routing requires global (arrival_time, job_id) order"
                )
            last_key = key
            route_one(job)
            total_jobs += 1
            pending = next(stream, None)
        routing_time += time.perf_counter() - started
    # A death during the last routing burst (or during an orphan re-submit)
    # can strand jobs after the arrival stream is exhausted; keep re-routing
    # until no orphans remain.  Submits still land before the backend's
    # ``finish`` drain (pipe FIFO), so re-routed gangs are scheduled normally.
    started = time.perf_counter()
    while True:
        orphans = backend.take_orphans()
        if not orphans:
            break
        for orphan, old_shard in orphans:
            jobs_per_shard[old_shard] -= 1
            route_one(orphan)
    routing_time += time.perf_counter() - started
    if recorder is not None:
        snapshot(now)
        # Wall-clock counters are telemetry, not schedule: the kind is in
        # NONDETERMINISTIC_KINDS and trace diff skips it by default.
        recorder.emit(
            EVENT_TIMING,
            now,
            {
                "routing_time_s": routing_time,
                "advance_time_s": advance_time,
                "routed_jobs": total_jobs,
            },
        )
    return DriveStats(
        assignments=assignments,
        jobs_per_shard=jobs_per_shard,
        routing_time_s=routing_time,
        advance_time_s=advance_time,
        total_jobs=total_jobs,
    )


class FederationEngine:
    """Runs a sharded federation of scheduling loops to completion.

    Backend-agnostic, like the drive loop: the same engine runs shards in
    this process (:class:`LocalShardBackend`) or in worker processes
    (:class:`~repro.federation.parallel.WorkerPoolBackend`).  Building one
    starts nothing; :meth:`run` / :meth:`run_stream` start the backend, so
    their ``wall_time_s`` covers worker spawn and handshake.
    """

    def __init__(
        self,
        backend: ShardBackend,
        router: FederationRouter,
        jobs: Iterable[Job],
        tracked_job_ids: Optional[Sequence[int]] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.backend = backend
        self.router = router
        self.recorder = recorder
        self._jobs = jobs
        self._tracked_job_ids = tracked_job_ids

    def _drive(self, arrivals: Iterable[Job], record_assignments: bool, reduce):
        """Start the backend, route ``arrivals``, drain; the shared run body.

        Returns the drive statistics, the per-shard ``finish(reduce)`` payload
        and the result fields :class:`FederationResult` and
        :class:`FederationStreamResult` have in common.
        """
        wall_start = time.perf_counter()
        with self.backend as backend:
            stats = drive_federation(
                backend, self.router, arrivals, record_assignments, self.recorder
            )
            started = time.perf_counter()
            finished = backend.finish(reduce)
            advance_time = stats.advance_time_s + (time.perf_counter() - started)
        common = dict(
            router_name=self.router.name,
            round_duration=backend.round_duration,
            wall_time_s=time.perf_counter() - wall_start,
            routing_time_s=stats.routing_time_s,
            advance_time_s=advance_time,
            workers=backend.workers,
            fault_stats=backend.fault_stats(),
        )
        return stats, finished, common

    def run(self) -> FederationResult:
        """Route every gang, drain every shard, return the combined result."""
        arrivals = sorted(self._jobs, key=lambda j: (j.arrival_time, j.job_id))
        stats, shard_results, common = self._drive(arrivals, True, None)
        return FederationResult(
            shard_results=shard_results,
            assignments=stats.assignments,
            tracked_job_ids=(
                [job.job_id for job in arrivals]
                if self._tracked_job_ids is None
                else list(self._tracked_job_ids)
            ),
            **common,
        )

    def run_stream(self) -> FederationStreamResult:
        """Memory-bounded run over a lazy, pre-sorted arrival stream.

        ``jobs`` may be a generator ordered by ``(arrival_time, job_id)``
        (enforced as the stream drains); the parent holds one lookahead job
        and per-shard counters, never the trace, and each shard's result is
        reduced to :class:`ShardFinishStats` where the shard lives -- inside
        the worker on a pool, which is what makes 64-shard, 100k-job runs fit
        a bounded parent process.  Under supervision the checkpoint blobs add
        O(shard state) parent memory -- still independent of trace length,
        since the command log truncates at every checkpoint.
        """
        stats, shard_stats, common = self._drive(self._jobs, False, summarize_finished)
        return FederationStreamResult(
            shard_stats=shard_stats,
            jobs_per_shard=stats.jobs_per_shard,
            total_jobs=stats.total_jobs,
            peak_rss_mib=_peak_rss_mib(),
            **common,
        )


# ----------------------------------------------------------------------
# Shard construction: picklable factories
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioManagerFactory:
    """Picklable per-shard cluster-manager factory backed by the registry.

    Calling it with a shard index compiles the named scenario with a
    shard-specific seed and returns a fresh
    :class:`~repro.scenarios.timeline.TimelineClusterManager` -- entirely from
    plain data (name + seeds), so the factory crosses a process boundary and
    each worker compiles its own timeline instead of shipping one.
    """

    scenario: str
    smoke: bool = False
    seed_base: int = 0

    def __call__(self, shard_id: int) -> ClusterManager:
        from repro.scenarios.registry import get_scenario

        spec = get_scenario(self.scenario, smoke=self.smoke)
        return spec.compile(seed=self.seed_base + shard_id).make_cluster_manager()


@dataclass(frozen=True)
class UniformShardFactory:
    """Recipe for building one federation's identical shards, picklable.

    This is how shards reach worker processes: live simulators must never be
    pickled (their policy indexes re-bind by object identity and would go
    permanently stale in the child), so the *recipe* crosses the pipe and each
    worker builds its own shards from it.  The picklability contract is
    therefore on the ingredients: every factory field must be a module-level
    callable or a picklable object (policy classes themselves qualify;
    closures and lambdas do not -- use :class:`ScenarioManagerFactory` for
    per-shard scenario timelines).
    """

    nodes_per_shard: int
    scheduling_factory: Callable
    placement_factory: Optional[Callable] = None
    admission_factory: Optional[Callable] = None
    gpus_per_node: int = 4
    round_duration: float = 300.0
    cluster_manager_factory: Optional[Callable[[int], Optional[ClusterManager]]] = None
    #: When set, each built shard streams telemetry to
    #: ``<trace_dir>/shard-<id>.jsonl``.  The sink is opened *inside*
    #: ``build`` -- i.e. inside the worker process in parallel mode -- so
    #: fork and spawn contexts produce the same per-shard streams.
    trace_dir: Optional[str] = None
    #: Extra :class:`~repro.federation.shard.ShardSimulator` keywords, the
    #: same for every shard: ``fast_forward=False`` is the stepping
    #: reference, ``round_log_limit=0`` keeps a streaming shard's memory flat.
    engine_kwargs: Mapping[str, object] = field(default_factory=dict)

    def build(
        self, shard_id: int, recorder: Optional[TraceRecorder] = None
    ) -> ShardSimulator:
        """Build the single shard ``shard_id`` with fresh policy instances.

        ``recorder`` is the caller's (in-process recording); without one,
        ``trace_dir`` opens the shard's own.
        """
        if self.nodes_per_shard < 1:
            raise ConfigurationError(
                f"nodes_per_shard must be >= 1, got {self.nodes_per_shard}"
            )
        manager = (
            self.cluster_manager_factory(shard_id)
            if self.cluster_manager_factory
            else None
        )
        if recorder is None and self.trace_dir is not None:
            from repro.telemetry.sinks import JsonlSink  # pulls sqlite3/orjson

            os.makedirs(self.trace_dir, exist_ok=True)
            sink = JsonlSink(
                os.path.join(self.trace_dir, f"shard-{shard_id}.jsonl")
            )
            sink.write_header(
                TraceHeader(metadata={"source": f"shard{shard_id}"})
            )
            recorder = TraceRecorder(sink, source=f"shard{shard_id}")
        return ShardSimulator(
            shard_id=shard_id,
            cluster_state=build_cluster(
                num_nodes=self.nodes_per_shard,
                gpus_per_node=self.gpus_per_node,
            ),
            scheduling_policy=self.scheduling_factory(),
            placement_policy=self.placement_factory() if self.placement_factory else None,
            admission_policy=self.admission_factory() if self.admission_factory else None,
            cluster_manager=manager,
            round_duration=self.round_duration,
            recorder=recorder,
            **self.engine_kwargs,
        )

    def build_all(self, num_shards: int) -> List[ShardSimulator]:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        return [self.build(shard_id) for shard_id in range(num_shards)]
