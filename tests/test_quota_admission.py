"""Regression tests for the quota-admission livelock fix.

Seed behaviour: a job whose gang exceeds its user's quota sat in the per-user
queue forever; with such a job pending, the simulator's stall detector never
fired and the run burned its whole round budget before erroring out.  The
admission-reject path now fails these jobs at submission.
"""

from repro.cluster.builder import build_cluster
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.admission.quota import USER_QUOTA, UserQuotaAdmission
from repro.policies.scheduling.fifo import FifoScheduling
from repro.simulator.engine import Simulator
from repro.workloads.trace import Trace


def make_job(arrival, gpus, duration=2000.0, user="alice"):
    return Job(arrival_time=arrival, num_gpus=gpus, duration=duration, user=user)


def test_oversize_gang_is_rejected_not_queued():
    assert USER_QUOTA == 16
    policy = UserQuotaAdmission()
    job_state = JobState()
    cluster = build_cluster(num_nodes=8, gpus_per_node=4)
    oversize = make_job(0.0, 32)
    accepted = policy.accept([oversize], cluster, job_state)
    assert accepted == []
    assert policy.pending_jobs() == []
    assert oversize.status == JobStatus.FAILED
    assert oversize.metrics["admission_rejected"] == "gang_exceeds_user_quota"
    assert oversize.job_id in policy.rejected_job_ids
    # The job is tracked terminally, so nothing waits on it.
    assert oversize.job_id in job_state
    assert job_state.count_finished() == 1


def test_simulation_terminates_despite_oversize_job():
    """The seed livelock: the run must now finish instead of exhausting rounds."""
    jobs = [make_job(0.0, 32), make_job(0.0, 2, user="bob")]
    sim = Simulator(
        cluster_state=build_cluster(num_nodes=8, gpus_per_node=4),
        jobs=jobs,
        scheduling_policy=FifoScheduling(),
        admission_policy=UserQuotaAdmission(),
        max_rounds=5_000,
    )
    result = sim.run()
    by_id = {j.job_id: j for j in result.jobs}
    assert by_id[jobs[0].job_id].status == JobStatus.FAILED
    assert by_id[jobs[0].job_id].completion_time is None
    assert by_id[jobs[1].job_id].status == JobStatus.COMPLETED


def test_within_quota_jobs_still_queue_and_release():
    """The original quota semantics are preserved for admissible jobs."""
    jobs = [
        make_job(0.0, 16, duration=3000.0),
        make_job(0.0, 16, duration=3000.0),  # waits until the first finishes
        make_job(0.0, 2, user="bob"),
    ]
    sim = Simulator(
        cluster_state=build_cluster(num_nodes=16, gpus_per_node=4),
        jobs=jobs,
        scheduling_policy=FifoScheduling(),
        admission_policy=UserQuotaAdmission(),
        max_rounds=10_000,
    )
    result = sim.run()
    assert len(result.finished_jobs()) == 3
    first, second = result.jobs[0], result.jobs[1]
    # The second alice job could only start after the first released quota.
    assert second.first_schedule_time >= first.completion_time - sim.manager.round_duration


def test_trace_helper_roundtrip():
    trace = Trace(jobs=[make_job(0.0, 1)])
    assert len(trace.fresh_jobs()) == 1
