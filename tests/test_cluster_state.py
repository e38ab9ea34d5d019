"""Index-invariant tests for the refactored ``ClusterState``.

Every mutation sequence is followed by ``check_invariants()``, which recomputes
the free sets, the job->GPU index and the cached counters from the raw GPU rows
and asserts they agree -- so any drift between the incremental bookkeeping and
the ground truth fails loudly.
"""

import random

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.node import Node
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import AllocationError, UnknownNodeError
from repro.policies.placement.base import AvailabilityView


def test_add_node_assign_release_roundtrip():
    cluster = build_cluster(num_nodes=3, gpus_per_node=4)
    cluster.check_invariants()
    assert cluster.total_gpus == 12
    assert cluster.num_free_gpus() == 12
    assert cluster.utilization() == 0.0

    cluster.assign(7, [0, 1, 5])
    cluster.check_invariants()
    assert cluster.num_free_gpus() == 9
    assert [g.gpu_id for g in cluster.gpus_for_job(7)] == [0, 1, 5]
    assert cluster.nodes_for_job(7) == [0, 1]
    assert not cluster.job_is_consolidated(7)
    assert cluster.jobs_with_allocations() == [7]
    assert cluster.utilization() == pytest.approx(3 / 12)

    freed = cluster.release_job(7)
    cluster.check_invariants()
    assert freed == [0, 1, 5]
    assert cluster.num_free_gpus() == 12
    assert cluster.gpus_for_job(7) == []
    assert cluster.jobs_with_allocations() == []


def test_double_assignment_raises_and_leaves_state_clean():
    cluster = build_cluster(num_nodes=1, gpus_per_node=4)
    cluster.assign(1, [0])
    with pytest.raises(AllocationError):
        cluster.assign(2, [1, 0])  # GPU 0 is taken; nothing must stick
    cluster.check_invariants()
    assert cluster.gpus_for_job(2) == []
    assert cluster.num_free_gpus() == 3
    with pytest.raises(AllocationError):
        cluster.assign(3, [2, 2])  # duplicate ids in one request
    cluster.check_invariants()
    assert cluster.num_free_gpus() == 3


def test_empty_assignment_is_a_noop_without_phantom_index_entries():
    cluster = build_cluster(num_nodes=1, gpus_per_node=4)
    cluster.assign(42, [])
    cluster.check_invariants()
    assert cluster.jobs_with_allocations() == []
    assert cluster.gpus_for_job(42) == []


def test_gpu_type_filter_is_case_insensitive():
    cluster = ClusterState()
    cluster.add_node(Node(node_id=0, num_gpus=2, gpu_type_name="v100"))
    cluster.add_node(Node(node_id=1, num_gpus=2, gpu_type_name="p100"))
    assert cluster.num_free_gpus("V100") == 2
    assert cluster.num_free_gpus("v100") == 2
    assert cluster.num_free_gpus("P100") == 2
    assert len(cluster.free_gpus("V100")) == 2
    assert [g.node_id for g in cluster.free_gpus("p100")] == [1, 1]
    # GPUType objects work as filters too.
    assert cluster.num_free_gpus(cluster.node(0).gpu_type) == 2


def test_failure_and_recovery_update_free_counters():
    cluster = build_cluster(num_nodes=3, gpus_per_node=4)
    cluster.assign(7, [0, 1, 5])
    affected = cluster.mark_node_failed(1)
    assert affected == [7]
    cluster.check_invariants()
    assert cluster.num_free_gpus() == 6  # node 1's three free GPUs excluded
    assert cluster.num_free_gpus("v100") == 6
    assert all(g.node_id != 1 for g in cluster.free_gpus())
    # Failing an already-failed node is a no-op for the counters.
    cluster.mark_node_failed(1)
    cluster.check_invariants()
    assert cluster.num_free_gpus() == 6

    cluster.mark_node_recovered(1)
    cluster.check_invariants()
    assert cluster.num_free_gpus() == 9
    cluster.mark_node_recovered(1)  # idempotent
    cluster.check_invariants()
    assert cluster.num_free_gpus() == 9


def test_remove_node_evicts_jobs_and_releases_aux_everywhere():
    cluster = build_cluster(num_nodes=3, gpus_per_node=4)
    cluster.assign(7, [0, 1, 5])  # spans nodes 0 and 1
    cluster.assign(8, [9])  # node 2, untouched by the removal
    cluster.reserve_aux(7, 0, 4.0, 8.0)
    cluster.reserve_aux(7, 1, 2.0, 4.0)
    cluster.reserve_aux(8, 2, 3.0, 16.0)

    evicted = cluster.remove_node(1)
    cluster.check_invariants()
    assert evicted == [7]
    # The evicted job's whole allocation is gone, including GPUs on node 0,
    # and its aux reservations on surviving nodes were released (no leak).
    assert cluster.gpus_for_job(7) == []
    assert cluster.node(0).aux_allocation(7) == (0.0, 0.0)
    assert cluster.node(0).aux_job_ids() == []
    # The unrelated job is untouched.
    assert [g.gpu_id for g in cluster.gpus_for_job(8)] == [9]
    assert cluster.node(2).aux_allocation(8) == (3.0, 16.0)
    assert cluster.total_gpus == 8
    assert cluster.num_free_gpus() == 7

    with pytest.raises(UnknownNodeError):
        cluster.remove_node(1)


def test_view_orders_free_gpus_by_local_id():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    cluster.assign(1, [0, 2])
    view = AvailabilityView(cluster)
    assert view.node_ids() == [0, 1]
    assert [g.local_gpu_id for g in view.free_on_node(0)] == [1, 3]
    assert [g.local_gpu_id for g in view.free_on_node(1)] == [0, 1, 2, 3]
    # A suspended job's GPUs rejoin in local-id order, not in the order given.
    returned = AvailabilityView(cluster, extra_gpu_ids=[2, 0])
    assert [g.local_gpu_id for g in returned.free_on_node(0)] == [0, 1, 2, 3]
    cluster.mark_node_failed(1)
    assert AvailabilityView(cluster).node_ids() == [0]
    assert AvailabilityView(cluster).free_on_node(1) == []


def test_snapshot_is_deep_and_uses_public_node_state():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    cluster.assign(3, [0, 1])
    cluster.reserve_aux(3, 0, 6.0, 32.0)
    cluster.mark_node_failed(1)

    snap = cluster.snapshot()
    snap.check_invariants()
    assert snap.total_gpus == cluster.total_gpus
    assert [g.gpu_id for g in snap.gpus_for_job(3)] == [0, 1]
    assert snap.node(0).aux_allocation(3) == (6.0, 32.0)
    assert snap.node(1).failed
    assert snap.num_free_gpus() == cluster.num_free_gpus()

    # Mutating the snapshot must not leak into the original (and vice versa).
    snap.release_job(3)
    snap.check_invariants()
    cluster.check_invariants()
    assert cluster.gpus_for_job(3) != []
    cluster.assign(4, [2])
    assert snap.gpus[2].is_free


def test_randomized_mutations_never_break_invariants():
    rng = random.Random(42)
    cluster = build_cluster(num_nodes=6, gpus_per_node=4)
    next_job = 0
    live_jobs = []
    for _ in range(300):
        op = rng.random()
        if op < 0.4:
            want = rng.choice([1, 1, 2, 4])
            free = cluster.free_gpus()
            if len(free) >= want:
                job_id = next_job
                next_job += 1
                cluster.assign(job_id, [g.gpu_id for g in free[:want]])
                live_jobs.append(job_id)
        elif op < 0.7 and live_jobs:
            cluster.release_job(live_jobs.pop(rng.randrange(len(live_jobs))))
        elif op < 0.8:
            node_id = rng.choice(list(cluster.nodes))
            evicted = cluster.mark_node_failed(node_id)
            for job_id in evicted:
                cluster.release_job(job_id)
                if job_id in live_jobs:
                    live_jobs.remove(job_id)
        elif op < 0.9:
            failed = [n.node_id for n in cluster.nodes.values() if n.failed]
            if failed:
                cluster.mark_node_recovered(rng.choice(failed))
        elif cluster.num_nodes > 2:
            node_id = rng.choice(list(cluster.nodes))
            for job_id in cluster.remove_node(node_id):
                if job_id in live_jobs:
                    live_jobs.remove(job_id)
        cluster.check_invariants()
