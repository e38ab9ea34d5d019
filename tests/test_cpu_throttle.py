"""Synergy's CPU throttle is allocation state: granted at launch, read by the rate.

A Synergy placement puts its per-GPU CPU/memory request on the decision; the
launcher reserves it and records the granted share of the job's CPU demand
with the allocation in ``ClusterState``; ``ExecutionModel.effective_rate``
applies ``0.4 + 0.6 * share``.  A launch without a request reserves the full
demand and runs at full CPU speed, however oversubscribed the node is.
"""

import pickle

import pytest

from repro.cluster.node import Node
from repro.core.abstractions import PlacementDecision, ScheduleEntry
from repro.core.blox_manager import BloxManager
from repro.core.cluster_state import ClusterState
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.policies.placement import ConsolidatedPlacement
from repro.policies.placement.synergy_placement import PROPORTIONAL, TUNE, SynergyPlacement
from repro.simulator.execution import ExecutionModel

CPU_PER_GPU = 12.0  # CPU-hungry: more than a 32-core, 4-GPU node's 8 per GPU


def rate(job, cluster):
    return ExecutionModel().effective_rate(job, cluster)


def granted_share(job, cluster):
    """The share from the node's aux reservation, as the test sees it."""
    (node_id,) = cluster.nodes_for_job(job.job_id)
    cpus, _mem = cluster.node(node_id).aux_allocation(job.job_id)
    return min(1.0, cpus / (job.cpu_demand_per_gpu * job.num_gpus))


@pytest.mark.parametrize("mode", [PROPORTIONAL, TUNE])
def test_synergy_launch_runs_at_its_granted_cpu_share(mode):
    cluster = ClusterState([Node(0, 4, cpu_cores=32.0), Node(1, 4, cpu_cores=16.0)])
    hungry = Job(arrival_time=0.0, num_gpus=2, duration=3600.0, job_id=1,
                 cpu_demand_per_gpu=CPU_PER_GPU)
    hog = Job(arrival_time=0.0, num_gpus=4, duration=3600.0, job_id=2,
              cpu_demand_per_gpu=CPU_PER_GPU)
    job_state = JobState()
    job_state.add_new_jobs([hungry, hog])
    manager = BloxManager([])
    synergy = SynergyPlacement(mode)

    def apply(decision):
        manager.exec_jobs(decision, cluster, job_state)
        cluster.check_invariants()

    def launch(placement, job):
        # A round's schedule names every job that keeps running, too.
        schedule = [ScheduleEntry(j.job_id, j.num_gpus) for j in job_state.running_jobs()]
        schedule.append(ScheduleEntry(job.job_id, job.num_gpus))
        apply(placement.place(schedule, cluster, job_state))

    def check_throttled(job):
        share = granted_share(job, cluster)
        assert cluster.cpu_share(job.job_id) == share
        assert rate(job, cluster) == job.throughput_factor(job.num_gpus) * (0.4 + 0.6 * share)
        return share

    # Alone on the 32-core node: proportional grants 8 of 12 cores per GPU,
    # tune the full demand.
    launch(synergy, hungry)
    assert cluster.nodes_for_job(hungry.job_id) == [0]
    first = check_throttled(hungry)
    assert first == (2 / 3 if mode == PROPORTIONAL else 1.0)

    apply(PlacementDecision(to_suspend=[hungry.job_id]))
    assert cluster.cpu_share(hungry.job_id) is None

    # A launch without a request takes all 32 cores for a 48-core demand and
    # still runs at full CPU speed.
    launch(ConsolidatedPlacement(), hog)
    assert cluster.nodes_for_job(hog.job_id) == [0]
    assert cluster.node(0).aux_allocation(hog.job_id)[0] < CPU_PER_GPU * hog.num_gpus
    assert cluster.cpu_share(hog.job_id) is None
    assert rate(hog, cluster) == hog.throughput_factor(hog.num_gpus)

    # The relaunch lands on the 16-core node and follows its new grant.
    launch(synergy, hungry)
    assert cluster.nodes_for_job(hungry.job_id) == [1]
    second = check_throttled(hungry)
    assert second == (1 / 3 if mode == PROPORTIONAL else 2 / 3)

    for copy in (cluster.snapshot(), pickle.loads(pickle.dumps(cluster))):
        copy.check_invariants()
        assert copy.cpu_share(hungry.job_id) == second
        assert copy.cpu_share(hog.job_id) is None
        assert rate(hungry, copy) == rate(hungry, cluster)
