"""Schedule-parity and unit tests for the incremental policy layer.

The incremental implementations (heap-based Pollux, priority-index ordering
for FIFO/SRTF/LAS/Tiresias/Gavel, Tiresias' demotion bounds) must make
bit-identical decisions to the sort-based reference implementations kept in
``repro.bench.legacy``, run on the stepping engine (``fast_forward=False``)
-- and the event-aware fast-forward the new policies opt into must be
invisible in the results.  Parity runs use a 256-GPU
Philly-style workload (the benchmark cluster shape) so both the contended and
the drain regimes are exercised.
"""

import pytest

from repro.bench.legacy import (
    LegacyFifoScheduling,
    LegacyGavelScheduling,
    LegacyLasScheduling,
    LegacyPolluxScheduling,
    LegacySrtfScheduling,
    LegacyTiresiasScheduling,
)
from repro.cluster.builder import build_cluster
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState, JobStateObserver
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import (
    FifoScheduling,
    GavelScheduling,
    LasScheduling,
    PolluxScheduling,
    SrtfScheduling,
    SynergyScheduling,
    ThemisScheduling,
    TiresiasScheduling,
)
from repro.policies.scheduling.priority_index import RunnablePriorityIndex
from repro.simulator.engine import Simulator
from repro.workloads.philly import generate_philly_trace


def build_256gpu_cluster():
    return build_cluster(num_nodes=64, gpus_per_node=4, gpu_type="v100")


@pytest.fixture(scope="module")
def trace():
    """A 256-GPU-scale Philly workload covering contention and drain."""
    return generate_philly_trace(num_jobs=120, jobs_per_hour=10.0, seed=2024)


def run(trace, scheduling_policy, **kwargs):
    sim = Simulator(
        cluster_state=build_256gpu_cluster(),
        jobs=trace.fresh_jobs(),
        scheduling_policy=scheduling_policy,
        placement_policy=ConsolidatedPlacement(),
        **kwargs,
    )
    return sim.run()


def assert_identical(first, second):
    assert first.rounds == second.rounds
    first_completions = {j.job_id: j.completion_time for j in first.jobs}
    second_completions = {j.job_id: j.completion_time for j in second.jobs}
    assert first_completions == second_completions
    assert first.round_log == second.round_log
    assert first.end_time == second.end_time


# ----------------------------------------------------------------------
# Reference-vs-incremental schedule parity (sort-based policy on the stepping
# engine vs. incremental policy on the event-aware engine)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "new_factory,old_factory",
    [
        (PolluxScheduling, LegacyPolluxScheduling),
        (TiresiasScheduling, LegacyTiresiasScheduling),
        (GavelScheduling, LegacyGavelScheduling),
        (SrtfScheduling, LegacySrtfScheduling),
        (LasScheduling, LegacyLasScheduling),
        (FifoScheduling, LegacyFifoScheduling),
    ],
    ids=["pollux", "tiresias", "gavel", "srtf", "las", "fifo"],
)
def test_incremental_policy_matches_legacy(trace, new_factory, old_factory):
    new = run(trace, new_factory())
    old = run(trace, old_factory(), fast_forward=False)
    assert_identical(old, new)
    assert len(new.finished_jobs()) == 120


# ----------------------------------------------------------------------
# Fast-forward on/off parity for the newly opted-in elastic policies
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        PolluxScheduling,
        TiresiasScheduling,
        GavelScheduling,
        FifoScheduling,
    ],
    ids=["pollux", "tiresias", "gavel", "fifo"],
)
def test_fast_forward_parity_for_event_aware_policies(trace, factory):
    with_skip = run(trace, factory(), fast_forward=True)
    without_skip = run(trace, factory(), fast_forward=False)
    assert_identical(without_skip, with_skip)


# ----------------------------------------------------------------------
# Kept-sorted running tiers (policies built with a running_key)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        FifoScheduling,
        SynergyScheduling,
        PolluxScheduling,
        TiresiasScheduling,
    ],
    ids=["fifo", "synergy", "pollux", "tiresias"],
)
def test_running_tier_equals_a_fresh_sort_after_every_schedule(trace, factory):
    """``check_invariants`` re-sorts the running tier by ``running_key`` over
    settled progress; a kept tier must equal it after every ``schedule()``."""
    policy = factory()
    index = policy._index
    schedule = policy.schedule
    repositioned = []
    reposition = index.reposition

    def checked_schedule(job_state, cluster_state):
        entries = schedule(job_state, cluster_state)
        index.check_invariants()
        return entries

    def counted_reposition(job):
        repositioned.append(job.job_id in index._running_keys)
        reposition(job)

    policy.schedule = checked_schedule
    index.reposition = counted_reposition
    result = run(trace, policy)
    assert len(result.finished_jobs()) == 120
    if isinstance(policy, TiresiasScheduling):
        assert any(repositioned), "no running job was demoted"


def test_themis_index_keeps_no_idle_tier(trace):
    """Themis sorts the registry's runnable set by rho every round, so its
    index (``idle_key=None``) keeps no idle tier -- only the running jobs
    and the reused entries -- and still mirrors the registry."""
    policy = ThemisScheduling()
    index = policy._index
    schedule = policy.schedule

    def checked_schedule(job_state, cluster_state):
        entries = schedule(job_state, cluster_state)
        index.check_invariants()
        assert index.idle_entries() == []
        return entries

    policy.schedule = checked_schedule
    result = run(trace, policy)
    assert len(result.finished_jobs()) == 120


def test_tiresias_checks_a_demotion_bound_with_slack():
    """Float drift may carry accumulated service over a threshold a hair before
    the closed-form bound; the check runs early enough to move the key."""
    job_state = JobState()
    cluster = build_256gpu_cluster()
    policy = TiresiasScheduling()
    job, other = make_job(gpus=1), make_job(arrival=1.0, gpus=1)
    job_state.add_new_jobs([job, other])
    list(policy.schedule(job_state, cluster))
    for running, gpu in ((job, 0), (other, 1)):
        cluster.assign(running.job_id, [gpu])
        running.allocated_gpus = [gpu]
        running.status = JobStatus.RUNNING
    # One GPU from 0 GPU-s: the first threshold, 3600 GPU-s, at 3600 s.
    assert policy.next_policy_event_time(job_state, cluster, 0.0) == 3600.0
    job.attained_service = 3600.0  # drifted past the threshold ...
    job_state.current_time = 3600.0 - 1e-9  # ... while the clock is short of the bound
    order = [entry.job_id for entry in policy.schedule(job_state, cluster)]
    policy._index.check_invariants()
    assert order == [other.job_id, job.job_id]


def test_fast_forward_parity_with_cluster_failure_under_tiresias(trace):
    """Event-aware skipping must stop exactly at scheduled cluster events."""
    from repro.core.abstractions import ClusterManager

    class OneFailure(ClusterManager):
        def __init__(self):
            self.failed = False
            self.recovered = False

        def update(self, cluster_state, current_time):
            if not self.failed and current_time >= 30_000:
                self.failed = True
                return cluster_state.mark_node_failed(3)
            if not self.recovered and current_time >= 120_000:
                self.recovered = True
                cluster_state.mark_node_recovered(3)
            return []

        def next_event_time(self, current_time):
            if not self.failed:
                return 30_000.0
            if not self.recovered:
                return 120_000.0
            return None

    with_skip = run(trace, TiresiasScheduling(), cluster_manager=OneFailure(), fast_forward=True)
    without_skip = run(
        trace, TiresiasScheduling(), cluster_manager=OneFailure(), fast_forward=False
    )
    assert_identical(without_skip, with_skip)


def test_fast_forward_parity_with_collectors_under_pollux(trace):
    """Collectors force the classic per-round loop; results must not change."""
    from repro.metrics.collector import UtilizationCollector

    a_coll, b_coll = UtilizationCollector(), UtilizationCollector()
    with_skip = run(trace, PolluxScheduling(), fast_forward=True, metric_collectors=[a_coll])
    without_skip = run(trace, PolluxScheduling(), fast_forward=False, metric_collectors=[b_coll])
    assert_identical(without_skip, with_skip)
    assert a_coll.timestamps == b_coll.timestamps
    assert a_coll.utilization == b_coll.utilization


# ----------------------------------------------------------------------
# Priority index and observer unit tests
# ----------------------------------------------------------------------


def make_job(arrival=0.0, gpus=1, duration=1000.0, **kwargs):
    return Job(arrival_time=arrival, num_gpus=gpus, duration=duration, **kwargs)


def las_key(job):
    return (job.attained_service, job.arrival_time, job.job_id)


def test_priority_index_tracks_status_transitions():
    job_state = JobState()
    index = RunnablePriorityIndex(idle_key=las_key)
    index.bind(job_state)
    jobs = [make_job(arrival=i) for i in range(5)]
    job_state.add_new_jobs(jobs)
    index.check_invariants()
    assert [j.job_id for j in index.ordered(las_key)] == [j.job_id for j in jobs]

    jobs[2].status = JobStatus.RUNNING
    jobs[0].status = JobStatus.RUNNING
    index.check_invariants()
    assert {j.job_id for j in index.running_jobs()} == {jobs[0].job_id, jobs[2].job_id}

    jobs[2].attained_service = 50.0
    jobs[2].status = JobStatus.PREEMPTED
    index.check_invariants()
    # Preempted job re-enters the idle tier keyed by its frozen service.
    idle_keys = {job.job_id: key for key, job in index.idle_entries()}
    assert idle_keys[jobs[2].job_id][0] == 50.0

    jobs[0].status = JobStatus.COMPLETED
    index.check_invariants()
    assert len(index) == 4
    # Full ordering equals a fresh sort.
    expected = sorted(job_state.runnable_jobs(), key=las_key)
    assert list(index.ordered(las_key)) == expected


def test_priority_index_rebinds_and_rebuilds():
    first, second = JobState(), JobState()
    first.add_new_jobs([make_job(arrival=0.0)])
    second.add_new_jobs([make_job(arrival=1.0), make_job(arrival=2.0)])
    rebuilds = []
    index = RunnablePriorityIndex(idle_key=las_key, on_rebuild=lambda: rebuilds.append(1))
    index.bind(first)
    assert len(index) == 1
    index.bind(second)
    assert len(index) == 2
    index.check_invariants()
    assert len(rebuilds) == 2
    # The old registry no longer notifies the index.
    first.add_new_jobs([make_job(arrival=3.0)])
    assert len(index) == 2


def test_observer_hooks_fire_in_order():
    events = []

    class Recorder(JobStateObserver):
        def on_job_tracked(self, job):
            events.append(("tracked", job.job_id))

        def on_status_change(self, job, old, new):
            events.append(("status", job.job_id, old, new))

    job_state = JobState()
    recorder = Recorder()  # observers are held weakly: keep a strong ref
    job_state.add_observer(recorder)
    job = make_job()
    job_state.track(job)
    job.status = JobStatus.RUNNABLE
    job.status = JobStatus.RUNNING
    job.attained_service = 10.0  # progress writes notify no observer
    job.work_done = 5.0
    assert events == [
        ("tracked", job.job_id),
        ("status", job.job_id, JobStatus.SUBMITTED, JobStatus.RUNNABLE),
        ("status", job.job_id, JobStatus.RUNNABLE, JobStatus.RUNNING),
    ]
    assert (job.attained_service, job.work_done) == (10.0, 5.0)


def test_pollux_goodput_memoization_and_invalidation():
    policy = PolluxScheduling()
    job = make_job(gpus=2)
    first = policy.marginal_goodput(job, 1)
    legacy = LegacyPolluxScheduling()
    assert first == legacy.marginal_goodput(job, 1)
    assert job.job_id in policy._gain_tables
    # Profile change: stale until invalidated, fresh afterwards.
    job.max_batch_scale = 1
    assert policy.marginal_goodput(job, 1) == first
    policy.invalidate_profile(job.job_id)
    assert policy.marginal_goodput(job, 1) == legacy.marginal_goodput(job, 1)


def test_gavel_schedules_without_metric_writes():
    job_state = JobState()
    cluster = build_cluster(num_nodes=2, gpus_per_node=2, gpu_type="v100")
    job = make_job(gpus=1)
    job_state.add_new_jobs([job])
    list(GavelScheduling().schedule(job_state, cluster))
    assert job.metrics == {}


def test_schedule_is_pure_under_repeated_calls(trace):
    """Calling schedule() twice in a row must yield the same entries (no
    comparator side effects)."""
    job_state = JobState()
    cluster = build_256gpu_cluster()
    job_state.add_new_jobs([make_job(arrival=i, gpus=2) for i in range(6)])
    job_state.current_time = 500.0
    policy = TiresiasScheduling()
    first = list(policy.schedule(job_state, cluster))
    second = list(policy.schedule(job_state, cluster))
    assert first == second
