"""Gang selection/suspension tests for ``BasePlacementPolicy`` and the view."""

import pytest

from repro.cluster.builder import build_cluster
from repro.core.abstractions import PlacementDecision, ScheduleEntry
from repro.core.blox_manager import BloxManager
from repro.core.exceptions import AllocationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.core.mechanisms import SimulatedLauncher
from repro.policies.placement.base import AvailabilityView
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.placement.first_free import FirstFreePlacement
from repro.simulator.overheads import OverheadModel


def make_job(job_id, gpus):
    return Job(arrival_time=0.0, num_gpus=gpus, duration=1000.0, job_id=job_id)


def launch(job, gpu_ids, cluster, job_state):
    launcher = SimulatedLauncher(OverheadModel(scale=0.0))
    launcher.launch(job, gpu_ids, cluster, current_time=0.0)
    assert job_state.get(job.job_id).status is JobStatus.RUNNING


def test_availability_view_tracks_totals_and_take():
    cluster = build_cluster(num_nodes=3, gpus_per_node=4)
    cluster.assign(1, [0, 1])
    view = AvailabilityView(cluster)
    assert view.total_free() == 10
    assert view.node_ids() == [0, 1, 2]
    assert [g.local_gpu_id for g in view.free_on_node(0)] == [2, 3]
    view.take(2, [2, 4, 5, 6, 7])
    assert view.total_free() == 5
    assert view.node_ids() == [0, 2]
    assert view.free_count(1) == 0
    # Suspended jobs' GPUs come back through extra_gpu_ids, ordered locally.
    view2 = AvailabilityView(cluster, extra_gpu_ids=[1, 0])
    assert view2.total_free() == 12
    assert [g.local_gpu_id for g in view2.free_on_node(0)] == [0, 1, 2, 3]


def test_consolidated_placement_prefers_single_node_best_fit():
    cluster = build_cluster(num_nodes=3, gpus_per_node=4)
    cluster.assign(99, [0])  # node 0 has 3 free: the tightest fit for 2 GPUs
    job_state = JobState()
    jobs = [make_job(1, 2)]
    job_state.add_new_jobs(jobs)
    decision = ConsolidatedPlacement().place(
        [ScheduleEntry(job_id=1, gpu_demand=2)], cluster, job_state
    )
    assert decision.to_suspend == []
    assert decision.to_launch[1] == [1, 2]  # best-fit node 0


def test_selection_respects_capacity_and_priority_order():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)  # 8 GPUs
    job_state = JobState()
    jobs = [make_job(1, 6), make_job(2, 4), make_job(3, 2)]
    job_state.add_new_jobs(jobs)
    schedule = [
        ScheduleEntry(job_id=1, gpu_demand=6),
        ScheduleEntry(job_id=2, gpu_demand=4),  # does not fit beside job 1
        ScheduleEntry(job_id=3, gpu_demand=2),  # backfills
    ]
    decision = FirstFreePlacement().place(schedule, cluster, job_state)
    assert sorted(decision.to_launch) == [1, 3]
    assert len(decision.to_launch[1]) == 6
    assert len(decision.to_launch[3]) == 2


def test_unselected_running_job_is_suspended_and_gpus_reused():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    job_state = JobState()
    low = make_job(1, 4)
    high = make_job(2, 8)
    job_state.add_new_jobs([low, high])
    launch(low, [0, 1, 2, 3], cluster, job_state)
    # The policy now prioritises the 8-GPU job only.
    decision = FirstFreePlacement().place(
        [ScheduleEntry(job_id=2, gpu_demand=8)], cluster, job_state
    )
    assert decision.to_suspend == [1]
    assert sorted(decision.to_launch[2]) == list(range(8))


def test_running_job_with_unchanged_demand_keeps_allocation():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    job_state = JobState()
    job = make_job(1, 3)
    job_state.add_new_jobs([job])
    launch(job, [4, 5, 6], cluster, job_state)
    decision = ConsolidatedPlacement().place(
        [ScheduleEntry(job_id=1, gpu_demand=3)], cluster, job_state
    )
    # A kept job is not part of the round's delta: named in neither list,
    # it still holds its GPUs once the decision is applied.
    assert decision.to_suspend == []
    assert 1 not in decision.to_launch
    launched = BloxManager([]).exec_jobs(decision, cluster, job_state)
    assert launched == []
    assert job.status is JobStatus.RUNNING and job.num_launches == 1
    assert job.allocated_gpus == [4, 5, 6]
    assert [g.gpu_id for g in cluster.gpus_for_job(1)] == [4, 5, 6]


def test_schedule_past_capacity_cannot_change_the_decision():
    def decide(entries):
        cluster = build_cluster(num_nodes=2, gpus_per_node=4)  # 8 GPUs
        job_state = JobState()
        jobs = [make_job(1, 4), make_job(2, 2), make_job(3, 2), make_job(4, 1), make_job(5, 8)]
        job_state.add_new_jobs(jobs)
        launch(jobs[0], [0, 1, 2, 3], cluster, job_state)
        launch(jobs[3], [4], cluster, job_state)  # running, loses its GPU either way
        return ConsolidatedPlacement().place(entries, cluster, job_state)

    schedule = [
        ScheduleEntry(job_id=1, gpu_demand=4),
        ScheduleEntry(job_id=2, gpu_demand=2),
        ScheduleEntry(job_id=3, gpu_demand=2),  # capacity runs out here
        ScheduleEntry(job_id=4, gpu_demand=1),
        ScheduleEntry(job_id=5, gpu_demand=8),
    ]
    full, truncated = decide(schedule), decide(schedule[:3])
    assert full == truncated
    assert full.to_suspend == [4] and sorted(full.to_launch) == [2, 3]


def test_listing_a_job_that_holds_gpus_fails_before_any_state_moves():
    """A decision is the round's delta: a running job listed in ``to_launch``
    without being suspended, on its own GPUs or on others, is an error."""
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    job_state = JobState()
    job = make_job(1, 3)
    job_state.add_new_jobs([job])
    launch(job, [4, 5, 6], cluster, job_state)

    def observed():
        return (
            job.status, job.allocated_gpus, job.num_launches, job.num_preemptions,
            job.pending_overhead, cluster.allocation(1), cluster.jobs_with_allocations(),
            [g.gpu_id for g in cluster.free_gpus()], cluster.utilization(),
        )

    before = observed()
    for listed in ([4, 5, 6], [0, 1, 2]):
        decision = PlacementDecision(to_launch={1: listed})
        with pytest.raises(AllocationError):
            BloxManager([]).exec_jobs(decision, cluster, job_state)
        assert observed() == before
        cluster.check_invariants()
        job_state.check_invariants()


def test_a_bad_launch_rejects_the_whole_decision_before_any_state_moves():
    """Launches run in ascending id, so job 1 would be RUNNING on GPU 0
    before job 2, which still holds GPUs 4-6, failed: the decision is
    checked whole before its first suspension."""
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    job_state = JobState()
    first, second = make_job(1, 1), make_job(2, 3)
    job_state.add_new_jobs([first, second])
    launch(second, [4, 5, 6], cluster, job_state)

    def observed():
        return (
            [(job.status, job.allocated_gpus, job.num_launches, job.num_preemptions,
              job.pending_overhead, job.first_schedule_time) for job in (first, second)],
            cluster.allocation(1), cluster.allocation(2), cluster.jobs_with_allocations(),
            [g.gpu_id for g in cluster.free_gpus()], cluster.utilization(),
        )

    before = observed()
    decision = PlacementDecision(to_launch={1: [0], 2: [4, 5, 6]})
    with pytest.raises(AllocationError):
        BloxManager([]).exec_jobs(decision, cluster, job_state)
    assert observed() == before
    cluster.check_invariants()
    job_state.check_invariants()


def test_duplicate_job_id_later_in_the_schedule_is_ignored():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    job_state = JobState()
    job_state.add_new_jobs([make_job(1, 2), make_job(2, 2)])
    decision = FirstFreePlacement().place(
        [
            ScheduleEntry(job_id=1, gpu_demand=2),
            ScheduleEntry(job_id=2, gpu_demand=2),
            ScheduleEntry(job_id=1, gpu_demand=4),  # ignored: job 1 already selected
        ],
        cluster,
        job_state,
    )
    assert decision.to_launch == {1: [0, 1], 2: [2, 3]}


def test_changed_demand_forces_suspension_and_reallocation():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    job_state = JobState()
    job = make_job(1, 2)
    job_state.add_new_jobs([job])
    launch(job, [0, 1], cluster, job_state)
    decision = ConsolidatedPlacement().place(
        [ScheduleEntry(job_id=1, gpu_demand=4)], cluster, job_state
    )
    assert decision.to_suspend == [1]
    assert len(decision.to_launch[1]) == 4


def test_failed_nodes_are_excluded_from_placement():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    cluster.mark_node_failed(0)
    job_state = JobState()
    job_state.add_new_jobs([make_job(1, 8)])
    decision = ConsolidatedPlacement().place(
        [ScheduleEntry(job_id=1, gpu_demand=8)], cluster, job_state
    )
    assert decision.to_launch == {}  # only 4 healthy GPUs exist
    job_state.add_new_jobs([make_job(2, 4)])
    decision = ConsolidatedPlacement().place(
        [ScheduleEntry(job_id=2, gpu_demand=4)], cluster, job_state
    )
    assert decision.to_launch[2] == [4, 5, 6, 7]
