"""Parallel federation tests: serial == parallel parity, pickling, crashes.

The contracts under test:

* a :class:`FederationEngine` on a :class:`WorkerPoolBackend` is
  **bit-identical** to the same engine on a :class:`LocalShardBackend` for the
  same factory/trace -- assignments,
  per-shard completion times, round logs and round counts -- for every stock
  router, including under per-shard failure-storm scenario timelines (worker
  processes are an execution detail, never a semantic one);
* the picklability contract behind the worker protocol: ``Job`` round-trips
  alone (unbound) and inside its registry (rebound), ``ScenarioSpec`` and
  timeline cluster managers round-trip, and ``ShardViewSummary`` crosses a
  pickle boundary intact;
* a worker that dies mid-run surfaces as a clean ``SimulationError`` in the
  parent -- no hang, no partial result;
* building an engine spawns nothing, ``workers=1`` is a real one-process pool,
  and a run that raises leaves no child process behind;
* streaming mode (``run_stream``) conserves jobs and reproduces the pooled
  statistics of the equivalent in-memory run, on either backend.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.core.abstractions import ClusterManager
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.federation import (
    FederationEngine,
    LocalShardBackend,
    ScenarioManagerFactory,
    UniformShardFactory,
    WorkerPoolBackend,
    drive_federation,
    make_router,
    router_names,
)
from repro.metrics.parity import schedule_diff
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import FifoScheduling, SrtfScheduling
from repro.scenarios.registry import get_scenario
from repro.simulator.overheads import OverheadModel
from repro.telemetry.events import TraceFormatError
from repro.telemetry.runspec import RunSpec
from repro.workloads.philly import PhillyTraceGenerator, generate_philly_trace

ROUND = 300.0


def small_trace(num_jobs=40, seed=7, jobs_per_hour=6.0):
    return generate_philly_trace(num_jobs=num_jobs, jobs_per_hour=jobs_per_hour, seed=seed)


def bench_factory(nodes_per_shard=4, scheduling=FifoScheduling,
                  cluster_manager_factory=None):
    return UniformShardFactory(
        nodes_per_shard=nodes_per_shard,
        scheduling_factory=scheduling,
        placement_factory=ConsolidatedPlacement,
        round_duration=ROUND,
        cluster_manager_factory=cluster_manager_factory,
    )


def make_engine(backend, router_name, jobs, tracked_job_ids=None):
    """The one engine; only the backend differs between serial and parallel."""
    return FederationEngine(backend, make_router(router_name), jobs, tracked_job_ids)


def run_serial(factory, num_shards, router_name, trace):
    backend = LocalShardBackend([factory.build(i) for i in range(num_shards)])
    return make_engine(backend, router_name, trace.fresh_jobs(), trace.tracked_ids()).run()


def run_parallel(factory, num_shards, router_name, trace, workers=2, **kwargs):
    backend = WorkerPoolBackend(factory, num_shards, workers, **kwargs)
    return make_engine(backend, router_name, trace.fresh_jobs(), trace.tracked_ids()).run()


# ----------------------------------------------------------------------
# Serial == parallel bit-parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("router_name", router_names())
def test_parallel_matches_serial(router_name):
    trace = small_trace()
    factory = bench_factory()
    serial = run_serial(factory, 2, router_name, trace)
    parallel = run_parallel(factory, 2, router_name, trace, workers=2)
    assert schedule_diff(serial, parallel).identical
    assert serial.workers == 0
    assert parallel.workers == 2


@pytest.mark.parametrize("router_name", router_names())
def test_parallel_matches_serial_under_failure_storm(router_name):
    # Each shard runs its own compiled churn timeline, built *inside* the
    # worker from the picklable ScenarioManagerFactory; evictions, node
    # failures and routed gangs must interleave identically to the serial run.
    trace = small_trace(num_jobs=30, seed=3)
    factory = bench_factory(
        cluster_manager_factory=ScenarioManagerFactory(
            "failure-storm", smoke=True, seed_base=99
        )
    )
    serial = run_serial(factory, 2, router_name, trace)
    parallel = run_parallel(factory, 2, router_name, trace, workers=2)
    assert schedule_diff(serial, parallel).identical
    assert sum(r.eviction_count for r in parallel.shard_results) == sum(
        r.eviction_count for r in serial.shard_results
    )


def test_parallel_matches_serial_with_srtf_and_more_shards_than_workers():
    # 4 shards on 2 workers exercises multi-shard-per-worker ownership, and
    # SRTF exercises preemption decisions inside the workers.
    trace = small_trace(num_jobs=30, seed=11)
    factory = bench_factory(scheduling=SrtfScheduling)
    serial = run_serial(factory, 4, "queue-delay", trace)
    parallel = run_parallel(factory, 4, "queue-delay", trace, workers=2)
    assert schedule_diff(serial, parallel).identical


def test_parallel_spawn_context_matches_serial():
    # The protocol must be spawn-safe: nothing reaches the worker by memory
    # inheritance, everything crosses the pipe or the factory pickle.
    trace = small_trace(num_jobs=20, seed=5)
    factory = bench_factory()
    serial = run_serial(factory, 2, "least-loaded", trace)
    parallel = run_parallel(
        factory, 2, "least-loaded", trace, workers=2, mp_context="spawn"
    )
    assert schedule_diff(serial, parallel).identical


def test_parallel_timing_breakdown_populated():
    trace = small_trace(num_jobs=20, seed=5)
    factory = bench_factory()
    result = run_parallel(factory, 2, "round-robin", trace, workers=2)
    assert result.routing_time_s > 0
    assert result.advance_time_s > 0
    assert len(result.shard_busy_time_s()) == 2
    timing = result.summary().as_dict()["timing"]
    assert timing["workers"] == 2
    assert timing["advance_time_s"] == result.advance_time_s


# ----------------------------------------------------------------------
# Process lifecycle: building spawns nothing, one worker is a real pool
# ----------------------------------------------------------------------

SPEC = RunSpec(mode="federation", num_jobs=20, num_nodes=8, shards=2, seed=5)


def test_workers_one_runs_one_worker_process(monkeypatch):
    spawned = []
    spawn = WorkerPoolBackend._spawn

    def counting_spawn(self, worker_index, build):
        spawned.append(worker_index)
        return spawn(self, worker_index, build)

    monkeypatch.setattr(WorkerPoolBackend, "_spawn", counting_spawn)
    single = SPEC.build(workers=1).run()
    assert spawned == [0]
    assert single.workers == 1
    assert schedule_diff(SPEC.build().run(), single).identical


def test_building_an_engine_starts_no_process():
    engine = SPEC.build(workers=2)
    assert multiprocessing.active_children() == []
    # ... so a pooled run's wall time covers spawn and handshake.
    assert engine.run().wall_time_s > 0
    assert multiprocessing.active_children() == []


class ExplodingRouter:
    name = "exploding"

    def route(self, job, summaries):
        raise RuntimeError("router blew up mid-drive")


def test_failed_drive_leaves_no_child_alive():
    engine = SPEC.build(workers=2)
    engine.router = ExplodingRouter()
    with pytest.raises(RuntimeError, match="mid-drive"):
        engine.run()
    assert multiprocessing.active_children() == []


def test_worker_pool_starts_once():
    backend = WorkerPoolBackend(bench_factory(), num_shards=2, workers=2)
    with backend:
        pass
    with pytest.raises(ConfigurationError, match="starts once"):
        backend.start()


def test_build_kwargs_reach_every_shard_on_both_backends():
    # One shard recipe: any engine keyword the in-process shards take, the
    # shards a worker builds take too.
    default = SPEC.build().run()
    for model in (OverheadModel(), OverheadModel(scale=0.0)):
        serial = SPEC.build(overhead_model=model).run()
        pooled = SPEC.build(workers=2, overhead_model=model).run()
        diff = schedule_diff(serial, pooled)
        assert diff.identical, diff.first_divergence
        # Free launches change the schedule: the keyword is not just tolerated.
        assert schedule_diff(default, serial).identical == (model.scale == 1.0)


def test_pool_keywords_need_workers():
    with pytest.raises(TraceFormatError, match="collect_timeout_s.*workers="):
        SPEC.build(collect_timeout_s=1.0)
    assert SPEC.build(workers=2, collect_timeout_s=1.0).backend.collect_timeout_s == 1.0


# ----------------------------------------------------------------------
# Worker crash surfaces as SimulationError, never a hang
# ----------------------------------------------------------------------


class ExitingManager(ClusterManager):
    """Kills its process on the first update past the trigger time."""

    name = "exiting"

    def __init__(self, after: float) -> None:
        self.after = after

    def update(self, cluster_state, current_time):
        if current_time >= self.after:
            os._exit(13)
        return []


class ExitingManagerFactory:
    """Picklable: shard 1's manager hard-exits mid-run, shard 0 is inert."""

    def __init__(self, after: float) -> None:
        self.after = after

    def __call__(self, shard_id: int):
        return ExitingManager(self.after) if shard_id == 1 else None


def test_worker_crash_raises_simulation_error():
    trace = small_trace(num_jobs=20, seed=5)
    factory = bench_factory(cluster_manager_factory=ExitingManagerFactory(after=3600.0))
    with pytest.raises(SimulationError, match="died|closed its pipe"):
        run_parallel(factory, 2, "round-robin", trace, workers=2)


def test_unpicklable_factory_fails_cleanly():
    # A lambda cannot cross a spawn boundary; the engine must raise at
    # startup, not deadlock.  (The fork context tolerates closures by memory
    # inheritance, which is why spawn-safety is the contract tests pin.)
    trace = small_trace(num_jobs=10, seed=5)
    factory = bench_factory(cluster_manager_factory=lambda shard_id: None)
    with pytest.raises(Exception):
        run_parallel(factory, 2, "round-robin", trace, workers=2, mp_context="spawn")


# ----------------------------------------------------------------------
# Pickling round-trips (the worker-protocol contract)
# ----------------------------------------------------------------------


def test_job_pickles_without_dragging_registry():
    state = JobState()
    jobs = [Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=i) for i in range(3)]
    for job in jobs:
        state.track(job)
    alone = pickle.loads(pickle.dumps(jobs[0]))
    assert alone.job_id == jobs[0].job_id
    assert alone.num_gpus == jobs[0].num_gpus
    assert alone._registry is None
    # An unbound job can be adopted by a fresh registry and live normally.
    fresh = JobState()
    fresh.track(alone)
    alone.status = JobStatus.RUNNING
    assert [j.job_id for j in fresh.running_jobs()] == [alone.job_id]


def test_job_state_pickle_rebinds_jobs():
    state = JobState()
    for i in range(3):
        state.track(Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=i))
    clone = pickle.loads(pickle.dumps(state))
    assert len(clone.all_jobs()) == 3
    for job in clone.all_jobs():
        assert job._registry is clone
    # Status writes on the clone keep the clone's indexes in sync.
    job = clone.all_jobs()[0]
    job.status = JobStatus.RUNNING
    assert [j.job_id for j in clone.running_jobs()] == [job.job_id]


def test_scenario_spec_and_timeline_manager_pickle():
    spec = get_scenario("failure-storm", smoke=True)
    spec_clone = pickle.loads(pickle.dumps(spec))
    assert spec_clone.name == spec.name
    manager = spec.compile(seed=42).make_cluster_manager()
    clone = pickle.loads(pickle.dumps(manager))
    for t in (0.0, 3600.0, 86400.0):
        assert clone.next_event_time(t) == manager.next_event_time(t)


def test_scenario_manager_factory_pickles_and_seeds_per_shard():
    factory = ScenarioManagerFactory("failure-storm", smoke=True, seed_base=7)
    clone = pickle.loads(pickle.dumps(factory))
    # Different shards compile different timelines; the same shard compiles
    # the same timeline on both sides of the pickle.
    assert clone(0).next_event_time(0.0) == factory(0).next_event_time(0.0)
    events_0 = factory(0).next_event_time(0.0)
    events_1 = factory(1).next_event_time(0.0)
    assert events_0 is not None and events_1 is not None


def test_shard_view_summary_pickles_and_with_queued():
    factory = bench_factory()
    shard = factory.build(0)
    summary = shard.view_summary()
    clone = pickle.loads(pickle.dumps(summary))
    assert clone == summary
    job = Job(arrival_time=0.0, num_gpus=4, duration=600.0, job_id=1)
    grown = summary.with_queued(job)
    assert grown.pending_gpu_demand == summary.pending_gpu_demand + 4
    assert grown.outstanding_gpu_seconds == pytest.approx(
        summary.outstanding_gpu_seconds + job.remaining_work * 4
    )
    assert grown.queued_jobs == summary.queued_jobs + 1


# ----------------------------------------------------------------------
# Streaming mode
# ----------------------------------------------------------------------


def test_run_stream_conserves_jobs_and_stats():
    generator = PhillyTraceGenerator(num_jobs=30, jobs_per_hour=6.0, seed=7)
    factory = bench_factory()
    reference = make_engine(
        WorkerPoolBackend(factory, 2, 2), "round-robin", generator.generate().fresh_jobs()
    ).run()
    stream = make_engine(
        WorkerPoolBackend(factory, 2, 2), "round-robin", generator.iter_jobs()
    ).run_stream()
    assert stream.total_jobs == 30
    assert stream.jobs_per_shard == reference.jobs_per_shard()
    assert stream.finished_jobs() == reference.pooled_stats().count
    assert stream.avg_jct() == pytest.approx(reference.pooled_stats().avg_jct)
    assert stream.total_rounds() == reference.total_rounds()
    assert stream.peak_rss_mib > 0


def test_run_stream_in_process_matches_pooled_stream():
    # The drain reduces each result where the shard lives, on either backend.
    generator = PhillyTraceGenerator(num_jobs=30, jobs_per_hour=6.0, seed=7)
    factory = bench_factory()
    local = make_engine(
        LocalShardBackend([factory.build(i) for i in range(2)]), "queue-delay", generator.iter_jobs()
    ).run_stream()
    pooled = make_engine(
        WorkerPoolBackend(factory, 2, 2), "queue-delay", generator.iter_jobs()
    ).run_stream()
    assert (local.workers, pooled.workers) == (0, 2)
    assert local.fault_stats is None
    assert local.jobs_per_shard == pooled.jobs_per_shard
    assert local.finished_jobs() == pooled.finished_jobs() == 30
    assert local.avg_jct() == pooled.avg_jct()
    assert local.total_rounds() == pooled.total_rounds()


def test_drive_federation_rejects_unsorted_stream():
    factory = bench_factory()
    backend = LocalShardBackend([factory.build(i) for i in range(2)])
    jobs = [
        Job(arrival_time=600.0, num_gpus=1, duration=600.0, job_id=2),
        Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=1),
    ]
    with pytest.raises(ConfigurationError, match="not sorted"):
        drive_federation(backend, make_router("round-robin"), jobs)


def test_philly_iter_jobs_matches_generate():
    generator = PhillyTraceGenerator(num_jobs=25, jobs_per_hour=8.0, seed=3)
    eager = generator.generate().jobs
    lazy = list(generator.iter_jobs())
    assert [(j.job_id, j.arrival_time, j.num_gpus, j.duration) for j in eager] == [
        (j.job_id, j.arrival_time, j.num_gpus, j.duration) for j in lazy
    ]
