"""Index-invariant tests for the refactored ``ClusterState``.

Every mutation sequence is followed by ``check_invariants()``, which recomputes
the free sets, the job->GPU index and the cached counters from the raw GPU rows
and asserts they agree -- so any drift between the incremental bookkeeping and
the ground truth fails loudly.
"""

import pickle
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
    assert cluster.allocation(7).runs == {0: [0, 1], 1: [5]}
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


# ---------------------------------------------------------------------------
# The allocation record against the GPU rows, under random mutation
# ---------------------------------------------------------------------------


def _rows_view(cluster, job_id):
    """What the job's allocation must say, recomputed from the GPU rows alone."""
    held = sorted(g.gpu_id for g in cluster.gpus.values() if g.job_id == job_id)
    if not held:
        return None
    runs = {}
    for gpu_id in held:
        runs.setdefault(cluster.gpus[gpu_id].node_id, []).append(gpu_id)
    return (
        held,
        list(runs.items()),
        tuple(sorted(runs)),
        min(cluster.gpus[g].gpu_type.compute_factor for g in held),
        min(cluster.nodes[n].network_bw_gbps for n in runs),
    )


def _record_view(record):
    if record is None:
        return None
    return (
        sorted(record.gpu_ids),
        list(record.runs.items()),
        record.nodes,
        record.compute_factor,
        record.bandwidth,
    )


def _assert_records(cluster, shares):
    cluster.check_invariants()
    jobs = {g.job_id for g in cluster.gpus.values() if g.job_id is not None}
    assert set(cluster.allocations()) == jobs
    for job_id in jobs | set(shares):
        assert _record_view(cluster.allocation(job_id)) == _rows_view(cluster, job_id)
        assert cluster.cpu_share(job_id) == shares.get(job_id)
        view = _rows_view(cluster, job_id)
        assert cluster.nodes_for_job(job_id) == ([] if view is None else list(view[2]))
        assert [g.gpu_id for g in cluster.gpus_for_job(job_id)] == ([] if view is None else view[0])
    # An aux reservation exists only for a job holding GPUs on that node or
    # reserved through reserve_aux; a released job holds none anywhere.
    for node in cluster.nodes.values():
        for job_id in node.aux_job_ids():
            assert job_id in jobs, f"job {job_id} keeps aux on node {node.node_id}"


def _random_mixed_cluster(rng):
    cluster = ClusterState()
    for node_id in rng.sample(range(40), rng.randint(3, 10)):
        cluster.add_node(
            Node(
                node_id=node_id,
                num_gpus=rng.choice([1, 2, 4, 8]),
                gpu_type_name=rng.choice(["k80", "p100", "v100", "a100"]),
                cpu_cores=rng.choice([4.0, 16.0, 64.0]),
                mem_gb=rng.choice([32.0, 256.0]),
                network_bw_gbps=rng.choice([10.0, 25.0, 100.0]),
            )
        )
    return cluster


def _random_record_walk(seed, steps):
    rng = random.Random(seed)
    cluster = _random_mixed_cluster(rng)
    shares = {}
    next_job, next_node = 0, 100
    for _ in range(steps):
        op = rng.random()
        if op < 0.35:
            free = [g.gpu_id for g in cluster.free_gpus()]
            if free:
                picked = rng.sample(free, rng.randint(1, min(len(free), 9)))
                aux = rng.choice([None, (2.0, 8.0), (6.0, 30.0)])
                before = {n: node.cpu_allocated for n, node in cluster.nodes.items()}
                granted = cluster.assign(next_job, picked, aux)
                spent = sum(node.cpu_allocated - before[n] for n, node in cluster.nodes.items())
                assert granted == pytest.approx(spent)
                if aux is None:
                    assert granted == 0.0
                elif rng.random() < 0.5:
                    shares[next_job] = min(1.0, granted / (aux[0] * len(picked)))
                    cluster.set_cpu_share(next_job, shares[next_job])
                if rng.random() < 0.2:  # a reservation outside assign goes too
                    cluster.reserve_aux(next_job, rng.choice(sorted(cluster.nodes)), 1.0, 1.0)
                next_job += 1
        elif op < 0.55:
            held = cluster.jobs_with_allocations()
            if held:
                job_id = rng.choice(held)
                freed = cluster.release_job(job_id)
                assert freed == sorted(freed) and freed
                shares.pop(job_id, None)
        elif op < 0.65:
            for job_id in cluster.mark_node_failed(rng.choice(sorted(cluster.nodes))):
                if rng.random() < 0.5:
                    cluster.release_job(job_id)
                    shares.pop(job_id, None)
        elif op < 0.72:
            failed = sorted(n for n, node in cluster.nodes.items() if node.failed)
            if failed:
                cluster.mark_node_recovered(rng.choice(failed))
        elif op < 0.8:
            if cluster.num_nodes > 2:
                for job_id in cluster.remove_node(rng.choice(sorted(cluster.nodes))):
                    shares.pop(job_id, None)
        elif op < 0.86:
            cluster.add_node(
                Node(node_id=next_node, num_gpus=rng.choice([2, 4]), gpu_type_name="a100")
            )
            next_node += 1
        elif op < 0.93:
            cluster = cluster.snapshot()
        else:
            cluster = pickle.loads(pickle.dumps(cluster))
        _assert_records(cluster, shares)
    return cluster


@pytest.mark.parametrize("seed", range(4))
def test_allocation_record_matches_the_gpu_rows(seed):
    _random_record_walk(seed, 150)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(4, 64))
def test_allocation_record_matches_the_gpu_rows_wide(seed):
    _random_record_walk(seed, 400)


def test_standalone_aux_reservation_is_released_with_the_job():
    cluster = build_cluster(num_nodes=3, gpus_per_node=4)
    assert cluster.assign(7, [0, 1], (2.0, 4.0)) == 4.0
    cluster.reserve_aux(7, 2, 3.0, 5.0)  # a node the job holds no GPU on
    assert cluster.node(0).aux_allocation(7) == (4.0, 8.0)
    cluster.release_job(7)
    cluster.check_invariants()
    assert all(node.aux_job_ids() == [] for node in cluster.nodes.values())
    # A job holding no GPUs at all is freed too.
    cluster.reserve_aux(8, 1, 1.0, 1.0)
    assert cluster.release_job(8) == []
    assert cluster.node(1).aux_job_ids() == []


def test_every_assignment_is_a_new_record():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    cluster.assign(1, [0, 1])
    first = cluster.allocation(1)
    assert first.runs == {0: [0, 1]} and first.nodes == (0,)
    cluster.release_job(1)
    assert cluster.allocation(1) is None
    cluster.assign(1, [0, 4, 1])
    assert cluster.allocation(1) is not first
    assert cluster.allocation(1).runs == {0: [0, 1], 1: [4]}
    assert cluster.allocation(1).nodes == (0, 1)
    with pytest.raises(AllocationError, match="already holds GPUs"):
        cluster.assign(1, [5])  # a job's allocation changes by release, then assign
    cluster.check_invariants()
