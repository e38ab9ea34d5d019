"""Federation-layer tests: routing, shard parity, summary aggregation.

The contracts under test:

* a 1-shard federation is **bit-identical** to a plain :class:`Simulator`
  run of the same trace (routing adds nothing but a queue hop);
* a federation run with per-shard fast-forward on vs. per-round stepping
  produces identical per-shard schedules *and* identical routing decisions
  (routers read shard state only at pause points, where fast-forward parity
  holds);
* every job lives in exactly one shard's registry, shard cluster indexes
  stay invariant-clean, and per-shard scenario timelines compose with
  routing;
* routers are deterministic and honour the feasibility filter;
* :func:`repro.metrics.summary.federation_summary` handles the edge cases
  sharding creates: empty shards, single-job shards, percentiles over tiny
  samples.
"""

import pytest

from repro.cluster.builder import build_cluster
from repro.core.blox_manager import BloxManager
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.job import Job
from repro.federation import (
    FederationEngine,
    FederationRouter,
    GpuTypeAffinityRouter,
    LeastLoadedRouter,
    LocalShardBackend,
    QueueDelayRouter,
    RoundRobinRouter,
    ShardSimulator,
    ShardViewSummary,
    UniformShardFactory,
    make_router,
    router_names,
    summarize_shard,
)
from repro.metrics.parity import schedule_diff
from repro.metrics.summary import FederationSummary, federation_summary, percentile
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import FifoScheduling, SrtfScheduling
from repro.scenarios.registry import get_scenario
from repro.simulator.engine import RoundRecord, Simulator
from repro.workloads.philly import generate_philly_trace

ROUND = 300.0


def small_trace(num_jobs=40, seed=7, jobs_per_hour=6.0):
    return generate_philly_trace(num_jobs=num_jobs, jobs_per_hour=jobs_per_hour, seed=seed)


def make_federation(num_shards, router, trace, fast_forward=True, nodes_per_shard=4,
                    scheduling=FifoScheduling, cluster_manager_factory=None):
    shards = UniformShardFactory(
        nodes_per_shard,
        scheduling,
        ConsolidatedPlacement,
        round_duration=ROUND,
        cluster_manager_factory=cluster_manager_factory,
        engine_kwargs={"fast_forward": fast_forward},
    ).build_all(num_shards)
    engine = FederationEngine(
        LocalShardBackend(shards),
        router,
        trace.fresh_jobs(),
        tracked_job_ids=trace.tracked_ids(),
    )
    return engine, shards


def completions(result):
    return {j.job_id: j.completion_time for j in result.jobs}


# ----------------------------------------------------------------------
# Single-shard federation == plain simulator
# ----------------------------------------------------------------------


def test_single_shard_matches_mono_simulator():
    trace = small_trace()
    mono = Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=FifoScheduling(),
        placement_policy=ConsolidatedPlacement(),
        round_duration=ROUND,
    ).run()
    engine, _ = make_federation(1, RoundRobinRouter(), trace)
    federated = engine.run()
    shard = federated.shard_results[0]
    assert completions(shard) == completions(mono)
    assert shard.round_log == mono.round_log
    assert shard.rounds == mono.rounds


def test_single_shard_matches_mono_simulator_stepping():
    trace = small_trace()
    mono = Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=FifoScheduling(),
        placement_policy=ConsolidatedPlacement(),
        round_duration=ROUND,
        fast_forward=False,
    ).run()
    engine, _ = make_federation(1, RoundRobinRouter(), trace, fast_forward=False)
    shard = engine.run().shard_results[0]
    assert completions(shard) == completions(mono)
    assert shard.round_log == mono.round_log


# ----------------------------------------------------------------------
# Fast-forward vs stepping parity across the routing layer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("router_name", router_names())
def test_federation_fast_forward_parity(router_name):
    trace = small_trace()
    ff_engine, ff_shards = make_federation(2, make_router(router_name), trace)
    step_engine, _ = make_federation(2, make_router(router_name), trace, fast_forward=False)
    fastforward = ff_engine.run()
    stepping = step_engine.run()
    assert schedule_diff(fastforward, stepping).identical
    for shard in ff_shards:
        shard.cluster_state.check_invariants()


def test_federation_parity_with_srtf():
    # A second gang policy exercises preemption decisions across shards.
    trace = small_trace(num_jobs=30, seed=11)
    ff_engine, _ = make_federation(2, QueueDelayRouter(), trace, scheduling=SrtfScheduling)
    step_engine, _ = make_federation(
        2, QueueDelayRouter(), trace, scheduling=SrtfScheduling, fast_forward=False
    )
    assert schedule_diff(ff_engine.run(), step_engine.run()).identical


def test_federation_parity_with_per_shard_scenarios():
    # Each shard runs its own compiled churn timeline; routing events and
    # scenario events must both bound the shard's fast-forward.
    trace = small_trace(num_jobs=30, seed=3)

    def managers(seed_base):
        def factory(shard_id):
            scenario = get_scenario("failure-storm", smoke=True).compile(seed_base + shard_id)
            return scenario.make_cluster_manager()

        return factory

    ff_engine, ff_shards = make_federation(
        2, QueueDelayRouter(), trace, cluster_manager_factory=managers(99)
    )
    step_engine, _ = make_federation(
        2, QueueDelayRouter(), trace, fast_forward=False, cluster_manager_factory=managers(99)
    )
    fastforward = ff_engine.run()
    stepping = step_engine.run()
    assert schedule_diff(fastforward, stepping).identical
    for shard in ff_shards:
        shard.cluster_state.check_invariants()


# ----------------------------------------------------------------------
# Registry semantics: each job lives in exactly one shard
# ----------------------------------------------------------------------


def test_every_job_routed_to_exactly_one_shard():
    trace = small_trace()
    engine, shards = make_federation(2, LeastLoadedRouter(), trace)
    result = engine.run()
    all_ids = {job.job_id for job in trace.jobs}
    assert set(result.assignments) == all_ids
    seen = {}
    for index, shard_result in enumerate(result.shard_results):
        for job in shard_result.jobs:
            assert job.job_id not in seen, "job registered in two shards"
            seen[job.job_id] = index
            assert result.assignments[job.job_id] == index
    assert set(seen) == all_ids
    # Per-shard registries really are disjoint live objects.
    for shard in shards:
        for job_id in shard.tracked_job_ids:
            assert job_id in shard.job_state
    assert sum(len(r.jobs) for r in result.shard_results) == len(all_ids)


def test_result_accessors():
    trace = small_trace(num_jobs=20, seed=5)
    engine, _ = make_federation(2, RoundRobinRouter(), trace)
    result = engine.run()
    assert result.num_shards == 2
    assert sum(result.jobs_per_shard()) == 20
    assert result.total_rounds() == sum(r.rounds for r in result.shard_results)
    assert [j.job_id for j in result.jobs()] == sorted(j.job_id for j in result.jobs())
    assert result.makespan() > 0
    assert result.avg_jct() > 0


# ----------------------------------------------------------------------
# Feasibility and configuration errors
# ----------------------------------------------------------------------


def test_infeasible_gang_raises():
    # 2 nodes x 4 GPUs per shard = 8 GPUs; a 16-GPU gang fits nowhere.
    jobs = [Job(arrival_time=0.0, num_gpus=16, duration=3600.0, job_id=1)]
    shards = UniformShardFactory(2, FifoScheduling, round_duration=ROUND).build_all(2)
    engine = FederationEngine(LocalShardBackend(shards), RoundRobinRouter(), jobs)
    with pytest.raises(SimulationError, match="no feasible routing"):
        engine.run()


def test_oversized_gangs_skip_small_shards():
    # An 8-GPU gang cannot enter the 1-node shard, so round-robin must place
    # both large gangs on shard 0 (4 nodes) while small jobs still rotate.
    jobs = [
        Job(arrival_time=0.0, num_gpus=8, duration=3600.0, job_id=1),
        Job(arrival_time=0.0, num_gpus=8, duration=3600.0, job_id=2),
        Job(arrival_time=0.0, num_gpus=1, duration=3600.0, job_id=3),
    ]
    shards = [
        ShardSimulator(
            shard_id=0,
            cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
            scheduling_policy=FifoScheduling(),
            round_duration=ROUND,
        ),
        ShardSimulator(
            shard_id=1,
            cluster_state=build_cluster(num_nodes=1, gpus_per_node=4),
            scheduling_policy=FifoScheduling(),
            round_duration=ROUND,
        ),
    ]
    result = FederationEngine(LocalShardBackend(shards), RoundRobinRouter(), jobs).run()
    assert result.assignments[1] == 0
    assert result.assignments[2] == 0


def test_engine_rejects_misnumbered_shards():
    shards = UniformShardFactory(2, FifoScheduling, round_duration=ROUND).build_all(2)
    shards[1].shard_id = 7
    with pytest.raises(ConfigurationError, match="shard ids must equal"):
        LocalShardBackend(shards)


def test_engine_rejects_mixed_round_durations():
    shards = [
        ShardSimulator(
            shard_id=0,
            cluster_state=build_cluster(num_nodes=2, gpus_per_node=4),
            scheduling_policy=FifoScheduling(),
            round_duration=300.0,
        ),
        ShardSimulator(
            shard_id=1,
            cluster_state=build_cluster(num_nodes=2, gpus_per_node=4),
            scheduling_policy=FifoScheduling(),
            round_duration=600.0,
        ),
    ]
    with pytest.raises(ConfigurationError, match="round_duration"):
        LocalShardBackend(shards)


def test_engine_rejects_empty_workload():
    shards = UniformShardFactory(2, FifoScheduling, round_duration=ROUND).build_all(1)
    with pytest.raises(ConfigurationError, match="empty workload"):
        FederationEngine(LocalShardBackend(shards), RoundRobinRouter(), []).run()


def test_submit_after_finish_raises():
    jobs = [Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=1)]
    shards = UniformShardFactory(1, FifoScheduling, round_duration=ROUND).build_all(1)
    FederationEngine(LocalShardBackend(shards), RoundRobinRouter(), jobs).run()
    with pytest.raises(SimulationError, match="draining"):
        shards[0].submit(Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=2))


def test_blox_manager_rejects_out_of_order_submission():
    manager = BloxManager(trace_jobs=[], round_duration=ROUND)
    manager.submit_job(Job(arrival_time=600.0, num_gpus=1, duration=60.0, job_id=2))
    with pytest.raises(ConfigurationError, match="out of\\s+order"):
        manager.submit_job(Job(arrival_time=0.0, num_gpus=1, duration=60.0, job_id=1))
    assert [j.job_id for j in manager.queued_jobs()] == [2]


def test_make_router_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown router"):
        make_router("nope")


# ----------------------------------------------------------------------
# Router behaviour and determinism
# ----------------------------------------------------------------------


def _view(shard_id, num_nodes=2, gpus_per_node=4, gpu_type="v100", jobs=(), queued=(),
          now=0.0, all_failed=False):
    cluster = build_cluster(num_nodes=num_nodes, gpus_per_node=gpus_per_node, gpu_type=gpu_type)
    from repro.core.job_state import JobState

    state = JobState()
    for job, running_gpus in jobs:
        state.track(job)
        if running_gpus:
            gpu_ids = [g.gpu_id for g in cluster.free_gpus()[:running_gpus]]
            cluster.assign(job.job_id, gpu_ids)
            from repro.core.job import JobStatus

            job.allocated_gpus = sorted(gpu_ids)
            job.status = JobStatus.RUNNING
    if all_failed:
        for node_id in list(cluster.nodes):
            cluster.mark_node_failed(node_id)
    return summarize_shard(
        shard_id=shard_id,
        cluster_state=cluster,
        job_state=state,
        current_time=now,
        queued_jobs=tuple(queued),
    )


def test_round_robin_cycles_deterministically():
    views = [_view(0), _view(1), _view(2)]
    assert all(isinstance(v, ShardViewSummary) for v in views)
    job = Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=1)
    router = make_router("round-robin")
    first = [router.route(job, views) for _ in range(6)]
    router2 = make_router("round-robin")
    second = [router2.route(job, views) for _ in range(6)]
    assert first == [0, 1, 2, 0, 1, 2]
    assert first == second


def test_least_loaded_prefers_idle_shard():
    busy_job = Job(arrival_time=0.0, num_gpus=4, duration=7200.0, job_id=50)
    busy = _view(0, jobs=[(busy_job, 4)])
    idle = _view(1)
    job = Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=1)
    assert LeastLoadedRouter().route(job, [busy, idle]) == 1
    # Ties break on the lower shard id.
    assert LeastLoadedRouter().route(job, [_view(0), _view(1)]) == 0


def test_gpu_affinity_prefers_matching_type():
    v100 = _view(0, gpu_type="v100")
    a100 = _view(1, gpu_type="a100")
    job = Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=1, gpu_type="a100")
    assert GpuTypeAffinityRouter().route(job, [v100, a100]) == 1
    # Unknown type degrades to least-loaded (shard 0 on the tie).
    other = Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=2, gpu_type="k80")
    assert GpuTypeAffinityRouter().route(other, [v100, a100]) == 0


def test_routers_avoid_dead_shards():
    # A fully failed shard reports capacity_utilization == 0.0; it must
    # rank as maximally loaded, not as idle, for every load-based router.
    dead = _view(0, all_failed=True)
    busy_job = Job(arrival_time=0.0, num_gpus=4, duration=7200.0, job_id=70)
    busy = _view(1, jobs=[(busy_job, 4)])
    job = Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=1)
    assert LeastLoadedRouter().route(job, [dead, busy]) == 1
    assert GpuTypeAffinityRouter().route(job, [dead, busy]) == 1
    assert QueueDelayRouter().route(job, [dead, busy]) == 1


def test_queue_delay_sees_backlog_and_queued_gangs():
    long_job = Job(arrival_time=0.0, num_gpus=4, duration=72000.0, job_id=60)
    backlogged = _view(0, jobs=[(long_job, 4)])
    idle = _view(1)
    job = Job(arrival_time=0.0, num_gpus=1, duration=600.0, job_id=1)
    router = QueueDelayRouter()
    assert router.route(job, [backlogged, idle]) == 1
    # A gang already routed (still queued) counts as backlog too.
    queued_gang = Job(arrival_time=0.0, num_gpus=8, duration=72000.0, job_id=61)
    loaded_queue = _view(0, queued=[queued_gang])
    assert router.route(job, [loaded_queue, idle]) == 1


def test_routing_is_replayable_end_to_end():
    trace = small_trace(num_jobs=25, seed=13)
    runs = []
    for _ in range(2):
        engine, _ = make_federation(3, QueueDelayRouter(), trace, nodes_per_shard=4)
        runs.append(engine.run())
    assert runs[0].assignments == runs[1].assignments
    assert completions(runs[0].shard_results[0]) == completions(runs[1].shard_results[0])


# ----------------------------------------------------------------------
# Empty shards end-to-end
# ----------------------------------------------------------------------


class PinRouter(FederationRouter):
    """Test router: always the first feasible shard."""

    name = "pin-first"

    def route(self, job, shards):
        return shards[0].shard_id


def test_empty_shard_runs_and_summarises():
    trace = small_trace(num_jobs=10, seed=21)
    engine, shards = make_federation(2, PinRouter(), trace)
    result = engine.run()
    assert result.jobs_per_shard() == [10, 0]
    empty = result.shard_results[1]
    assert empty.jobs == []
    # The idle shard's clock still advanced in lockstep with routing events.
    assert empty.rounds >= 1
    summary = result.summary()
    assert summary.shards[1].stats.count == 0
    assert summary.shards[1].stats.avg_jct == 0.0
    assert summary.pooled.count == 10
    assert summary.routing_imbalance == pytest.approx(2.0)
    shards[1].cluster_state.check_invariants()


# ----------------------------------------------------------------------
# federation_summary edge cases
# ----------------------------------------------------------------------


def _finished_job(job_id, arrival, jct, gpus=1):
    job = Job(arrival_time=arrival, num_gpus=gpus, duration=jct, job_id=job_id)
    job.completion_time = arrival + jct
    return job


def _record(busy, healthy):
    return RoundRecord(
        round_number=0,
        time=0.0,
        running_jobs=0,
        queued_jobs=0,
        utilization=0.0,
        scheduler_name="fifo",
        admission_name="accept-all",
        busy_capacity=busy,
        healthy_capacity=healthy,
    )


def test_federation_summary_empty_shard_and_pooling():
    jobs_a = [_finished_job(1, 0.0, 100.0), _finished_job(2, 0.0, 300.0)]
    summary = federation_summary(
        shard_jobs=[jobs_a, []],
        shard_round_logs=[[_record(4.0, 8.0)], [_record(0.0, 8.0)]],
        shard_eviction_counts=[1, 0],
    )
    assert isinstance(summary, FederationSummary)
    assert summary.num_shards == 2
    assert summary.jobs_per_shard == (2, 0)
    assert summary.shards[1].stats.count == 0
    assert summary.shards[1].stats.p99_jct == 0.0
    assert summary.pooled.count == 2
    assert summary.pooled.avg_jct == pytest.approx(200.0)
    # Pooled utilisation weighs the idle shard's healthy capacity in.
    assert summary.capacity_weighted_utilization == pytest.approx(4.0 / 16.0)
    assert summary.eviction_count == 1
    assert summary.routing_imbalance == pytest.approx(2.0)
    # Everything serialises to plain JSON types.
    as_dict = summary.as_dict()
    assert as_dict["num_shards"] == 2
    assert len(as_dict["shards"]) == 2


def test_federation_summary_single_job_shard_percentiles():
    summary = federation_summary(
        shard_jobs=[[_finished_job(1, 0.0, 500.0)]],
        shard_round_logs=[[]],
    )
    stats = summary.shards[0].stats
    assert stats.count == 1
    assert stats.median_jct == stats.p95_jct == stats.p99_jct == pytest.approx(500.0)
    assert summary.routing_imbalance == pytest.approx(1.0)


def test_federation_summary_tiny_sample_p99_interpolates():
    jobs = [_finished_job(1, 0.0, 100.0), _finished_job(2, 0.0, 200.0)]
    summary = federation_summary(shard_jobs=[jobs], shard_round_logs=[[]])
    # Two samples: p99 interpolates linearly between them, never exceeds max.
    assert summary.pooled.p99_jct == pytest.approx(percentile([100.0, 200.0], 99))
    assert 100.0 < summary.pooled.p99_jct <= 200.0


def test_federation_summary_no_jobs_at_all():
    summary = federation_summary(shard_jobs=[[], []], shard_round_logs=[[], []])
    assert summary.pooled.count == 0
    assert summary.routing_imbalance == 0.0
    assert summary.capacity_weighted_utilization == 0.0


def test_federation_summary_tracked_ids_restrict_pooled_and_shards():
    jobs_a = [_finished_job(1, 0.0, 100.0)]
    jobs_b = [_finished_job(2, 0.0, 900.0)]
    summary = federation_summary(
        shard_jobs=[jobs_a, jobs_b],
        shard_round_logs=[[], []],
        tracked_ids=[2],
    )
    assert summary.pooled.count == 1
    assert summary.pooled.avg_jct == pytest.approx(900.0)
    # jobs_per_shard counts *routed* jobs regardless of the tracked window;
    # the finished-tracked counts live on the per-shard stats.
    assert summary.jobs_per_shard == (1, 1)
    assert tuple(s.stats.count for s in summary.shards) == (0, 1)


def test_federation_summary_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="one entry per shard"):
        federation_summary(shard_jobs=[[]], shard_round_logs=[[], []])
    with pytest.raises(ValueError, match="one entry per shard"):
        federation_summary(
            shard_jobs=[[]], shard_round_logs=[[]], shard_eviction_counts=[1, 2]
        )
