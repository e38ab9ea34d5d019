"""The job record's layout: slotted, small, and copied field by field.

A trace holds one :class:`Job` (and one :class:`ScalingProfile`) per job, so
their layout is the bulk of a run's memory.  Both are slotted dataclasses;
these tests keep an instance dict from silently coming back:

* neither record has a ``__dict__``;
* a generated Philly job costs at most 700 traced bytes (about 2 KB with an
  instance dict of 30 keys or more, which CPython 3.11 stops sharing), and
  so does a job that ran to completion (~650 B: its metrics are computed on
  read, not stored -- a stored metrics dict made it ~880 B);
* ``copy_static()`` copies every static field and ``snapshot()`` every
  dynamic one -- both are written by hand, so they are checked against
  ``dataclasses.fields(Job)``;
* a tracked, running, deferred job survives a pickle slot for slot, with its
  runtime wiring (``_registry``, ``_epoch``) cleared;
* ``job.metrics`` is computed on read, not stored, and a write to it raises.
"""

import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from repro.cluster.builder import build_cluster
from repro.core.job import Job, JobStatus, ScalingProfile
from repro.core.job_state import JobState
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import TiresiasScheduling
from repro.simulator.engine import Simulator
from repro.workloads.philly import generate_philly_trace

WIRING = {"_registry", "_epoch"}

#: A non-default value for every static field (what ``copy_static`` keeps).
STATIC = {
    "arrival_time": 17.5,
    "num_gpus": 4,
    "duration": 5400.0,
    "job_id": 123457,
    "model_name": "bert",
    "gpu_type": "a100",
    "iteration_time": 0.25,
    "scaling": ScalingProfile(alpha=0.3, max_useful_gpus=4),
    "placement_sensitive": True,
    "skew": 0.7,
    "comm_intensity": 0.45,
    "cpu_demand_per_gpu": 5.0,
    "mem_demand_per_gpu": 24.0,
    "convergence_fraction": 0.5,
    "max_batch_scale": 2,
    "user": "user-3",
}

#: A non-default value for every dynamic field, by slot name.
DYNAMIC = {
    "_status": JobStatus.RUNNING,
    "admitted_time": 20.0,
    "first_schedule_time": 60.0,
    "completion_time": 900.0,
    "_attained_service": 480.0,
    "_work_done": 120.0,
    "allocated_gpus": [3, 1, 2, 0],
    "num_preemptions": 2,
    "num_launches": 3,
    "_pending_overhead": 30.0,
    "_rate": 0.5,
    "was_fragmented": True,
    "admission_rejected": "gang_exceeds_user_quota",
}


def slots(job):
    """Every slot value except the runtime wiring."""
    return {
        field.name: getattr(job, field.name)
        for field in dataclasses.fields(Job)
        if field.name not in WIRING
    }


def busy_job():
    job = Job(**STATIC)
    for name, value in DYNAMIC.items():
        public = name.lstrip("_")  # through the descriptor, where there is one
        setattr(job, public if hasattr(Job, public) else name, value)
    return job


def test_job_and_scaling_profile_have_no_instance_dict():
    job = Job(arrival_time=0.0, num_gpus=1, duration=60.0)
    for record in (job, job.scaling):
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            record.not_a_field = 1


def test_a_generated_job_costs_at_most_700_bytes():
    generate_philly_trace(num_jobs=10, jobs_per_hour=6.0, seed=1)  # warm every cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        jobs = generate_philly_trace(num_jobs=20_000, jobs_per_hour=6.0, seed=20240301)
        gc.collect()
        per_job = (tracemalloc.get_traced_memory()[0] - before) / len(jobs)
    finally:
        tracemalloc.stop()
    assert per_job <= 700, f"{per_job:.0f} B per job"


def test_a_job_costs_at_most_700_bytes_after_a_full_run():
    def run(num_jobs, seed):
        jobs = generate_philly_trace(num_jobs=num_jobs, jobs_per_hour=30.0, seed=seed).jobs
        Simulator(build_cluster(num_nodes=8, gpus_per_node=4), jobs, TiresiasScheduling()).run()
        for job in jobs:
            job._registry = None  # the run's registry, not the job's own state
        return jobs

    run(20, 1)  # warm every cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        jobs = run(600, 20240301)
        gc.collect()
        per_job = (tracemalloc.get_traced_memory()[0] - before) / len(jobs)
    finally:
        tracemalloc.stop()
    assert all(job.status is JobStatus.COMPLETED for job in jobs)
    assert per_job <= 700, f"{per_job:.0f} B per job"


def test_metrics_is_a_read_only_view_not_a_field():
    job = Job(arrival_time=0.0, num_gpus=1, duration=60.0)
    assert "metrics" not in {field.name for field in dataclasses.fields(Job)}
    assert job.metrics == {}
    job.was_fragmented = True
    assert job.metrics == {"was_fragmented": True}
    with pytest.raises(AttributeError):
        job.metrics = {"loss": 1.0}
    with pytest.raises(TypeError):
        job.metrics["loss"] = 1.0


def test_the_fixtures_name_every_field():
    names = {field.name for field in dataclasses.fields(Job)}
    assert set(STATIC) | set(DYNAMIC) | WIRING == names
    assert not set(STATIC) & set(DYNAMIC)
    fresh = Job(arrival_time=0.0, num_gpus=1, duration=60.0)
    for name, value in {**STATIC, **DYNAMIC}.items():
        assert getattr(fresh, name) != value, name


def test_copy_static_copies_every_static_field_and_resets_the_rest():
    job = busy_job()
    fresh = Job(arrival_time=0.0, num_gpus=1, duration=60.0)
    clone = job.copy_static()
    for name, value in STATIC.items():
        assert getattr(clone, name) == value, name
    for name in DYNAMIC:
        assert getattr(clone, name) == getattr(fresh, name), name
    assert clone.scaling is not job.scaling


def test_snapshot_copies_every_field():
    job = busy_job()
    clone = job.snapshot()
    assert slots(clone) == slots(job) == {**STATIC, **DYNAMIC}
    for name in ("scaling", "allocated_gpus"):
        assert getattr(clone, name) is not getattr(job, name), name


def test_a_deferred_job_pickles_slot_for_slot_without_its_wiring():
    sim = Simulator(
        cluster_state=build_cluster(num_nodes=8, gpus_per_node=4),
        jobs=generate_philly_trace(num_jobs=90, jobs_per_hour=30.0, seed=21).fresh_jobs(),
        scheduling_policy=TiresiasScheduling(),
        placement_policy=ConsolidatedPlacement(),
    )
    model = sim.execution_model
    place = sim.placement_policy.place
    checked = []

    def pickling_place(schedule, cluster_state, job_state):
        for epoch in list(model._records.values()):
            job = epoch.job
            if len(checked) == 20 or epoch.round in (None, model._fold_round):
                continue
            assert job._registry is job_state and job._epoch is epoch
            assert job.status is JobStatus.RUNNING
            copy = pickle.loads(pickle.dumps(job))
            # The pickle settled the live job, which keeps its wiring.
            assert epoch.round == model._fold_round
            assert job._registry is job_state and job._epoch is epoch
            assert copy._registry is None and copy._epoch is None
            assert slots(copy) == slots(job)
            checked.append(job.job_id)
        return place(schedule, cluster_state, job_state)

    sim.placement_policy.place = pickling_place
    sim.run()
    assert len(checked) == 20


def test_a_registry_pickle_rebinds_its_slotted_jobs():
    state = JobState()
    job = busy_job()
    state.track(job)
    clone = pickle.loads(pickle.dumps(state))
    (copy,) = clone.all_jobs()
    assert copy._registry is clone and copy._epoch is None
    assert slots(copy) == slots(job)
