"""The free-capacity index and the placement view that overlays it.

``ClusterState`` groups healthy nodes by free-GPU count; ``AvailabilityView``
reads those buckets and keeps its own state only for the nodes a round
touches.  Three references pin them down:

* ``check_invariants()`` recomputes the buckets from the raw GPU rows after
  every step of random mutation sequences (snapshots and pickles included);
* :class:`BruteForceView` is the view built the slow way -- every GPU row
  scanned, every query a full sort -- and the overlay must answer every query
  like it through successive ``take`` calls;
* every stock placement in ``PLACEMENT_POLICIES`` must decide exactly what it
  decides on the brute-force view, and never mutate the cluster's index.
"""

import pickle
import random
from typing import Dict, List, Optional

import pytest

from repro.cluster.node import GPU, Node
from repro.core.abstractions import ScheduleEntry
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import AllocationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.placement import base as placement_base
from repro.policies.placement.base import AvailabilityView, BasePlacementPolicy


class BruteForceView:
    """The availability view computed from scratch: scans, sorts, no index."""

    def __init__(self, cluster_state: ClusterState, extra_gpu_ids=()) -> None:
        self.cluster_state = cluster_state
        extra = set(extra_gpu_ids)
        self._free: Dict[int, List[GPU]] = {}
        for gpu in sorted(cluster_state.gpus.values(), key=lambda g: g.gpu_id):
            if cluster_state.nodes[gpu.node_id].failed:
                continue
            if gpu.is_free or gpu.gpu_id in extra:
                self._free.setdefault(gpu.node_id, []).append(gpu)
        for gpus in self._free.values():
            gpus.sort(key=lambda g: g.local_gpu_id)

    def total_free(self) -> int:
        return sum(len(gpus) for gpus in self._free.values())

    def node_ids(self) -> List[int]:
        return sorted(n for n, gpus in self._free.items() if gpus)

    def free_on_node(self, node_id: int) -> List[GPU]:
        return list(self._free.get(node_id, []))

    def free_count(self, node_id: int) -> int:
        return len(self._free.get(node_id, []))

    def best_fit(self, demand: int) -> Optional[int]:
        fits = [n for n in self.node_ids() if self.free_count(n) >= demand]
        return min(fits, key=lambda n: (self.free_count(n), n)) if fits else None

    def nodes_by_free_count(self, descending: bool = True) -> List[int]:
        sign = -1 if descending else 1
        return sorted(self.node_ids(), key=lambda n: (sign * self.free_count(n), n))

    def take(self, job_id: int, gpu_ids) -> None:
        wanted = list(gpu_ids)
        available = {g.gpu_id for gpus in self._free.values() for g in gpus}
        if len(set(wanted)) != len(wanted) or not set(wanted) <= available:
            raise AllocationError(f"job {job_id}: {wanted} not all available")
        for node_id in list(self._free):
            self._free[node_id] = [g for g in self._free[node_id] if g.gpu_id not in wanted]


def buckets_of(cluster: ClusterState) -> Dict[int, set]:
    return {count: set(nodes) for count, nodes in cluster.free_count_buckets().items() if nodes}


def random_cluster(rng: random.Random) -> ClusterState:
    """Nodes of 1-8 GPUs added in shuffled id order (with gaps), partly busy."""
    node_ids = rng.sample(range(3 * 12), rng.randint(2, 12))
    cluster = ClusterState()
    for node_id in node_ids:
        cluster.add_node(Node(node_id=node_id, num_gpus=rng.choice([1, 2, 4, 4, 8])))
    job_id = 1000
    for gpu_id in sorted(cluster.gpus):
        if rng.random() < 0.4:
            cluster.assign(job_id, [gpu_id])
            job_id += 1
    for node_id in sorted(cluster.nodes):
        if rng.random() < 0.15:
            cluster.mark_node_failed(node_id)
    cluster.check_invariants()
    return cluster


# ---------------------------------------------------------------------------
# The index under random mutation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_random_mutations_keep_the_free_index_exact(seed):
    rng = random.Random(seed)
    cluster = random_cluster(rng)
    next_job, next_node = 0, 100
    for _ in range(250):
        op = rng.random()
        if op < 0.3:
            free = cluster.free_gpus()
            want = rng.choice([1, 1, 2, 3, 4, 8])
            if len(free) >= want:
                picked = rng.sample(free, want)
                cluster.assign(next_job, [g.gpu_id for g in picked])
                next_job += 1
        elif op < 0.5:
            held = cluster.jobs_with_allocations()
            if held:
                cluster.release_job(rng.choice(held))
        elif op < 0.6:
            for job_id in cluster.mark_node_failed(rng.choice(sorted(cluster.nodes))):
                if rng.random() < 0.5:
                    cluster.release_job(job_id)
        elif op < 0.7:
            failed = sorted(n.node_id for n in cluster.nodes.values() if n.failed)
            if failed:
                cluster.mark_node_recovered(rng.choice(failed))
        elif op < 0.78:
            cluster.add_node(Node(node_id=next_node, num_gpus=rng.choice([1, 2, 4, 8])))
            next_node += rng.randint(1, 3)
        elif op < 0.86 and cluster.num_nodes > 2:
            cluster.remove_node(rng.choice(sorted(cluster.nodes)))
        elif op < 0.93:
            cluster = cluster.snapshot()
        else:
            cluster = pickle.loads(pickle.dumps(cluster))
        cluster.check_invariants()


def test_snapshot_and_pickle_carry_the_buckets():
    cluster = random_cluster(random.Random(3))
    expected = buckets_of(cluster)
    assert expected, "the random cluster should have free capacity"
    for copy in (cluster.snapshot(), pickle.loads(pickle.dumps(cluster))):
        assert buckets_of(copy) == expected
        copy.check_invariants()


def test_recovered_node_is_refiled_under_its_free_count():
    cluster = ClusterState([Node(node_id=n, num_gpus=4) for n in range(3)])
    cluster.assign(7, [0, 1, 2])  # node 0 keeps one free GPU
    assert buckets_of(cluster) == {1: {0}, 4: {1, 2}}
    cluster.mark_node_failed(0)
    assert buckets_of(cluster) == {4: {1, 2}}
    cluster.mark_node_recovered(0)
    assert buckets_of(cluster) == {1: {0}, 4: {1, 2}}
    cluster.remove_node(2)
    assert buckets_of(cluster) == {1: {0}, 4: {1}}
    cluster.check_invariants()


# ---------------------------------------------------------------------------
# The overlay view against the brute-force view
# ---------------------------------------------------------------------------


def assert_views_agree(view: AvailabilityView, ref: BruteForceView, cluster: ClusterState):
    assert view.total_free() == ref.total_free()
    assert view.node_ids() == ref.node_ids()
    assert list(view.nodes_by_free_count(descending=True)) == ref.nodes_by_free_count(True)
    assert list(view.nodes_by_free_count(descending=False)) == ref.nodes_by_free_count(False)
    for demand in range(1, 10):
        assert view.best_fit(demand) == ref.best_fit(demand), demand
    for node_id in sorted(cluster.nodes) + [999]:
        assert view.free_on_node(node_id) == ref.free_on_node(node_id), node_id
        assert view.free_count(node_id) == ref.free_count(node_id), node_id


@pytest.mark.parametrize("seed", range(25))
def test_overlay_view_matches_brute_force_through_takes(seed):
    rng = random.Random(seed)
    cluster = random_cluster(rng)
    before = buckets_of(cluster)
    # Suspended jobs' GPUs: busy ones rejoin; free ones, failed-node ones and
    # repeats must change nothing.
    busy = sorted(g.gpu_id for g in cluster.gpus.values() if not g.is_free)
    extra = rng.sample(busy, rng.randint(0, len(busy)))
    extra += rng.sample(sorted(cluster.gpus), min(3, cluster.total_gpus))
    extra += extra[: rng.randint(0, len(extra))]
    rng.shuffle(extra)
    view, ref = AvailabilityView(cluster, extra), BruteForceView(cluster, extra)
    assert_views_agree(view, ref, cluster)
    for job_id in range(8):
        available = [g.gpu_id for n in ref.node_ids() for g in ref.free_on_node(n)]
        if not available:
            break
        taken = rng.sample(available, rng.randint(1, min(6, len(available))))
        view.take(job_id, taken)
        ref.take(job_id, taken)
        assert_views_agree(view, ref, cluster)
    assert buckets_of(cluster) == before, "the view mutated the cluster's index"
    cluster.check_invariants()


def test_take_rejects_what_the_view_does_not_hold():
    cluster = ClusterState([Node(node_id=n, num_gpus=4) for n in range(3)])
    cluster.assign(1, [0])
    cluster.mark_node_failed(2)
    view = AvailabilityView(cluster)
    for bad in ([0], [1, 1], [8], [12]):  # busy, twice, failed node, unknown
        with pytest.raises(AllocationError, match="job 5"):
            view.take(5, bad)
    # Nothing was removed by the failed takes.
    assert view.total_free() == 7 and view.free_count(0) == 3


# ---------------------------------------------------------------------------
# Every stock placement decides as it does on the brute-force view
# ---------------------------------------------------------------------------


def random_round(rng: random.Random):
    """A random cluster, running jobs on it and a schedule over them all."""
    cluster = random_cluster(rng)
    for job_id in cluster.jobs_with_allocations():
        cluster.release_job(job_id)
    job_state = JobState()
    jobs = []
    for job_id in range(rng.randint(3, 14)):
        job = Job(
            arrival_time=0.0,
            num_gpus=rng.choice([1, 1, 2, 3, 4, 6, 8]),
            duration=1000.0,
            job_id=job_id,
            skew=rng.random(),
            placement_sensitive=rng.random() < 0.5,
        )
        jobs.append(job)
    job_state.add_new_jobs(jobs)
    for job in jobs:
        free = cluster.free_gpus()
        if rng.random() < 0.5 and len(free) >= job.num_gpus:
            gpu_ids = sorted(g.gpu_id for g in rng.sample(free, job.num_gpus))
            cluster.assign(job.job_id, gpu_ids)
            job.allocated_gpus = gpu_ids
            job.status = JobStatus.RUNNING
    # Fail a node under a running job now and then: its GPUs never rejoin.
    if rng.random() < 0.3:
        cluster.mark_node_failed(rng.choice(sorted(cluster.nodes)))
    schedule = [
        ScheduleEntry(
            job_id=job.job_id,
            gpu_demand=job.num_gpus if rng.random() < 0.7 else rng.choice([1, 2, 4, 8]),
        )
        for job in rng.sample(jobs, len(jobs))
    ]
    return cluster, job_state, schedule


@pytest.mark.parametrize("name", sorted(PLACEMENT_POLICIES))
def test_stock_placements_decide_as_on_the_brute_force_view(name, monkeypatch):
    for seed in range(40):
        cluster, job_state, schedule = random_round(random.Random(seed))
        before = buckets_of(cluster)
        decision = PLACEMENT_POLICIES[name]().place(schedule, cluster, job_state)
        assert buckets_of(cluster) == before, f"seed {seed}: place mutated the index"
        with monkeypatch.context() as patched:
            patched.setattr(placement_base, "AvailabilityView", BruteForceView)
            reference = PLACEMENT_POLICIES[name]().place(schedule, cluster, job_state)
        # Launch order too: ``exec_jobs`` applies the delta in it.
        assert list(decision.to_launch.items()) == list(reference.to_launch.items()), seed
        assert decision.to_suspend == reference.to_suspend, f"seed {seed}"


class HandsOutABusyGpu(BasePlacementPolicy):
    """A custom placement whose ``select_gpus`` returns a GPU a kept job holds."""

    name = "busy-gpu"

    def select_gpus(self, job, demand, view, cluster_state):
        return [4] + [g.gpu_id for g in view.free_on_node(0)][: demand - 1]


def test_a_busy_gpu_from_select_gpus_fails_in_place_naming_gpu_and_job():
    cluster = ClusterState([Node(node_id=n, num_gpus=4) for n in range(2)])
    job_state = JobState()
    kept, new = Job(0.0, 1, 1000.0, job_id=1), Job(0.0, 2, 1000.0, job_id=2)
    job_state.add_new_jobs([kept, new])
    cluster.assign(1, [4])
    kept.allocated_gpus, kept.status = [4], JobStatus.RUNNING
    schedule = [ScheduleEntry(job_id=1, gpu_demand=1), ScheduleEntry(job_id=2, gpu_demand=2)]
    with pytest.raises(AllocationError, match=r"job 2 was given GPU 4\b"):
        HandsOutABusyGpu().place(schedule, cluster, job_state)
