"""Status-transition tests for the indexed ``JobState``."""

import pickle

from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState


def make_job(job_id, arrival=0.0, gpus=1, duration=100.0):
    return Job(arrival_time=arrival, num_gpus=gpus, duration=duration, job_id=job_id)


def test_add_new_jobs_marks_runnable_and_indexes():
    state = JobState()
    jobs = [make_job(1), make_job(2)]
    added = state.add_new_jobs(jobs, current_time=5.0)
    assert added == jobs
    assert all(j.status is JobStatus.RUNNABLE for j in jobs)
    assert all(j.admitted_time == 5.0 for j in jobs)
    assert state.runnable_jobs() == jobs
    assert state.count_active() == 2
    state.check_invariants()


def test_set_status_moves_between_views():
    state = JobState()
    state.add_new_jobs([make_job(1), make_job(2), make_job(3)])
    state.set_status(1, JobStatus.RUNNING)
    state.set_status(2, JobStatus.COMPLETED)
    state.check_invariants()
    assert [j.job_id for j in state.running_jobs()] == [1]
    assert [j.job_id for j in state.finished_jobs()] == [2]
    assert [j.job_id for j in state.jobs_with_status(JobStatus.RUNNABLE)] == [3]
    assert [j.job_id for j in state.active_jobs()] == [1, 3]
    assert state.count_with_status(JobStatus.RUNNING, JobStatus.RUNNABLE) == 2
    assert state.count_finished() == 1


def test_direct_status_writes_also_reindex():
    """Mechanisms assign ``job.status`` directly; the descriptor must notify."""
    state = JobState()
    state.add_new_jobs([make_job(1)])
    job = state.get(1)
    job.status = JobStatus.RUNNING
    assert [j.job_id for j in state.running_jobs()] == [1]
    job.status = JobStatus.PREEMPTED
    assert state.running_jobs() == []
    assert [j.job_id for j in state.runnable_jobs()] == [1]
    job.status = JobStatus.COMPLETED
    assert state.count_active() == 0
    assert [j.job_id for j in state.finished_jobs()] == [1]
    state.check_invariants()


def test_track_keeps_status_and_handles_replacement():
    state = JobState()
    job = make_job(9)
    job.status = JobStatus.WAITING_ADMISSION
    state.track(job)
    assert [j.job_id for j in state.waiting_admission_jobs()] == [9]
    # Tracking a different object under the same id replaces the old one.
    replacement = make_job(9)
    replacement.status = JobStatus.RUNNABLE
    state.track(replacement)
    state.check_invariants()
    assert state.get(9) is replacement
    assert state.waiting_admission_jobs() == []
    # The detached job no longer notifies this registry.
    job.status = JobStatus.RUNNING
    assert state.running_jobs() == []
    state.check_invariants()


def test_tracking_a_foreign_owned_job_is_rejected():
    import pytest

    first = JobState()
    second = JobState()
    job = make_job(1)
    first.track(job)
    with pytest.raises(ValueError, match="already tracked by another JobState"):
        second.track(job)
    # The original registry stays authoritative and consistent.
    job.status = JobStatus.RUNNING
    assert [j.job_id for j in first.running_jobs()] == [1]
    assert second.running_jobs() == []
    first.check_invariants()
    second.check_invariants()
    # Re-tracking in the same registry is fine.
    first.track(job)
    first.check_invariants()


def test_untracked_job_status_writes_are_safe():
    job = make_job(1)
    job.status = JobStatus.RUNNING
    job.status = JobStatus.COMPLETED
    assert job.is_finished


def test_snapshot_is_independent():
    state = JobState()
    state.add_new_jobs([make_job(1), make_job(2)])
    state.set_status(1, JobStatus.RUNNING)
    snap = state.snapshot()
    snap.check_invariants()
    assert [j.job_id for j in snap.running_jobs()] == [1]
    snap.set_status(1, JobStatus.COMPLETED)
    # Original untouched; indexes of both registries stay correct.
    assert [j.job_id for j in state.running_jobs()] == [1]
    assert [j.job_id for j in snap.finished_jobs()] == [1]
    state.check_invariants()
    snap.check_invariants()


def test_pickle_roundtrip_preserves_indexing():
    state = JobState()
    state.add_new_jobs([make_job(1), make_job(2)])
    state.set_status(2, JobStatus.RUNNING)
    clone = pickle.loads(pickle.dumps(state))
    clone.check_invariants()
    assert [j.job_id for j in clone.running_jobs()] == [2]
    clone.get(1).status = JobStatus.COMPLETED
    clone.check_invariants()
    assert [j.job_id for j in clone.finished_jobs()] == [1]


def test_status_counts_match_a_recount_through_transitions_and_pickle():
    state = JobState()
    state.add_new_jobs([make_job(i) for i in range(6)])
    statuses = list(JobStatus)

    def recount(*wanted):
        return sum(1 for j in state.all_jobs() if j.status in wanted)

    for step, job_id in enumerate([0, 1, 2, 0, 3, 4, 5, 1, 2]):
        state.set_status(job_id, statuses[(step * 3) % len(statuses)])
        if step == 4:
            state = pickle.loads(pickle.dumps(state))  # the grouped sets must still alias
        assert state.count_active() == recount(*(s for s in statuses if s.is_active))
        assert state.count_finished() == recount(*(s for s in statuses if s.is_terminal))
        for status in statuses:
            assert state.count_with_status(status) == recount(status)
        # Several statuses, one repeated: each counted once.
        pair = (JobStatus.RUNNING, JobStatus.COMPLETED, JobStatus.RUNNING)
        assert state.count_with_status(*pair) == recount(*pair)
        state.check_invariants()
