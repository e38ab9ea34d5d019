"""A schedule that knows its own order answers placement's selection.

``BasePlacementPolicy.place`` calls ``schedule.select(remaining, held)`` when
the schedule has one and :func:`walk_schedule` over it otherwise; the walk is
the reference.  Two schedules answer it themselves: the gang stream of an
index with a kept-sorted running tier (FIFO, Synergy, Tiresias) and Pollux's
allocation.  These tests hold both to the walk:

* at every full round of the seeded parity corpus (a few seeds here, the
  wide sweep under ``--fuzz``), at the round's capacity and below it;
* on the edges the fast paths treat specially -- capacity used up exactly
  at a running block's end, no healthy GPU, more running jobs than GPUs, a
  running job holding other than its gang, a profile invalidated mid-run;
* Pollux's static unit order against the heap water-fill it replaced,
  copied here, over random gain tables (200 cases, 10 000 under ``--fuzz``).
"""

import heapq
import random

import pytest

from repro.cluster.builder import build_cluster
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.core.mechanisms import SimulatedLauncher, SimulatedPreemption
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.placement.base import walk_schedule
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import (
    FifoScheduling,
    PolluxScheduling,
    SynergyScheduling,
    TiresiasScheduling,
)
from repro.policies.scheduling.pollux import _MIN_GAIN, RESTART_PENALTY, _chain_keys
from repro.simulator.engine import Simulator
from repro.simulator.overheads import OverheadModel
from repro.workloads.philly import generate_philly_trace
from test_event_parity_fuzz import FUZZ_SWEEP_SEEDS, ScriptedChurn, _draw_spec

POLICIES = {
    "fifo": FifoScheduling,
    "synergy": SynergyScheduling,
    "tiresias": TiresiasScheduling,
    "pollux": PolluxScheduling,
}

#: Corpus seeds run in tier-1: between them, churn on and off and both
#: placements (see ``_draw_spec``).
TIER1_SEEDS = (11, 67, 104)


def assert_select_is_the_walk(stream, remaining, cluster, job_state, entries=None):
    """``stream.select`` returns exactly what the walk over ``iter(stream)`` does.

    Returns the selection (suspended ids sorted) and, if given the policy's
    entry memo, how many entries it held right after ``select``.
    """
    held = cluster.allocations()
    running = job_state.ids_with_status(JobStatus.RUNNING)
    selected, suspended = stream.select(remaining, held)
    built = len(entries) if entries is not None else None
    walked, walk_suspended = walk_schedule(iter(stream), remaining, held, running)
    assert list(selected.items()) == list(walked.items())
    assert sorted(suspended) == sorted(walk_suspended)
    return selected, sorted(suspended), built


def checked_simulator(policy, spec):
    """The corpus spec's run under ``policy``, holding select to the walk every round."""
    trace = generate_philly_trace(
        num_jobs=spec["jobs"], jobs_per_hour=spec["jobs_per_hour"], seed=spec["seed"]
    )
    sim = Simulator(
        cluster_state=build_cluster(num_nodes=spec["nodes"], gpus_per_node=spec["gpus_per_node"]),
        jobs=trace.fresh_jobs(),
        scheduling_policy=policy,
        placement_policy=PLACEMENT_POLICIES[spec["placement"]](),
        round_duration=spec["round_duration"],
        cluster_manager=ScriptedChurn(list(spec["churn"])) if spec["churn"] else None,
    )
    schedule = policy.schedule
    rounds = []

    def schedule_and_check(job_state, cluster_state):
        stream = schedule(job_state, cluster_state)
        healthy = cluster_state.healthy_gpus()
        for remaining in sorted({healthy, healthy // 2, min(healthy, 1), 0}):
            assert_select_is_the_walk(stream, remaining, cluster_state, job_state)
        rounds.append(job_state.current_time)
        return stream

    policy.schedule = schedule_and_check
    return sim, rounds


def run_corpus_seed(name, seed):
    sim, rounds = checked_simulator(POLICIES[name](), _draw_spec(seed))
    sim.run()
    assert rounds


@pytest.mark.parametrize("seed", TIER1_SEEDS)
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_select_is_the_walk_at_every_full_round(name, seed):
    run_corpus_seed(name, seed)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", FUZZ_SWEEP_SEEDS)
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_select_is_the_walk_across_the_sweep(name, seed):
    run_corpus_seed(name, seed)


# ----------------------------------------------------------------------
# Edges
# ----------------------------------------------------------------------


def cluster_with(jobs, running, num_nodes=2, gpus_per_node=4):
    """A registry of ``jobs`` (ids from 1, arrival = id) with ``running``
    launched: job id -> the GPU ids it holds."""
    cluster = build_cluster(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    job_state = JobState()
    by_id = {
        job_id: Job(arrival_time=float(job_id), num_gpus=gpus, duration=1e5, job_id=job_id)
        for job_id, gpus in jobs.items()
    }
    job_state.add_new_jobs(list(by_id.values()))
    launcher = SimulatedLauncher(OverheadModel(scale=0.0))
    for job_id, gpu_ids in running.items():
        launcher.launch(by_id[job_id], gpu_ids, cluster, current_time=0.0)
    return cluster, job_state


def gang_select(policy, cluster, job_state, remaining=None):
    """``(selected, sorted suspended ids, entries built by select)``, checked
    against the walk."""
    stream = policy.schedule(job_state, cluster)
    if remaining is None:
        remaining = cluster.healthy_gpus()
    entries = policy._index._entries
    return assert_select_is_the_walk(stream, remaining, cluster, job_state, entries)


@pytest.mark.parametrize("factory", [FifoScheduling, TiresiasScheduling])
def test_capacity_used_up_exactly_at_a_running_blocks_end(factory):
    # Jobs 1 and 2 run (the first block) and fill the 4 GPUs exactly.
    cluster, job_state = cluster_with({1: 2, 2: 2, 3: 1}, {1: [0, 1], 2: [2, 3]}, num_nodes=1)
    # Kept in bulk: no entry was built to find that out.
    assert gang_select(factory(), cluster, job_state) == ({}, [], 0)
    # Used up by the idle job between two blocks: job 2 takes the two GPUs
    # job 1 leaves, and job 3, running behind it, is suspended.
    cluster, job_state = cluster_with({1: 2, 2: 2, 3: 2}, {1: [0, 1], 3: [2, 3]}, num_nodes=1)
    assert gang_select(factory(), cluster, job_state) == ({2: 2}, [3], 0)


@pytest.mark.parametrize("factory", [FifoScheduling, TiresiasScheduling, PolluxScheduling])
def test_no_healthy_gpu(factory):
    cluster, job_state = cluster_with({1: 2, 2: 1, 3: 1}, {1: [0, 1], 3: [4]})
    for node_id in list(cluster.nodes):
        cluster.mark_node_failed(node_id)
    assert cluster.healthy_gpus() == 0
    selected, suspended, _ = gang_select(factory(), cluster, job_state)
    assert not selected and suspended == [1, 3]


@pytest.mark.parametrize("factory", [FifoScheduling, TiresiasScheduling, PolluxScheduling])
def test_more_running_jobs_than_healthy_gpus_after_a_scale_in(factory):
    # Six single-GPU jobs on two nodes; node 1 goes, leaving 4 GPUs for 6.
    running = {job_id: [job_id - 1] for job_id in range(1, 7)}
    cluster, job_state = cluster_with({job_id: 1 for job_id in range(1, 9)}, running)
    cluster.mark_node_failed(1)
    assert cluster.healthy_gpus() == 4
    selected, suspended, _ = gang_select(factory(), cluster, job_state)
    assert not selected and suspended == [5, 6]
    # A running block cut in the middle, then the rest walked.
    cluster, job_state = cluster_with({1: 2, 2: 2, 3: 2, 4: 1}, {1: [0, 1], 2: [2, 3], 3: [4, 5]})
    cluster.mark_node_failed(1)
    gang_select(factory(), cluster, job_state, remaining=3)


@pytest.mark.parametrize("factory", [FifoScheduling, TiresiasScheduling])
def test_running_job_holding_other_than_its_gang_takes_the_walk(factory):
    # Job 1 asks for 4 GPUs but runs on 2 (an elastic policy placed it).
    cluster, job_state = cluster_with({1: 4, 2: 2}, {1: [0, 1]})
    policy = factory()
    assert gang_select(policy, cluster, job_state)[:2] == ({1: 4, 2: 2}, [1])
    policy._index.check_invariants()
    # Resized to its gang, the job is kept by the index's own selection.
    job = job_state.get(1)
    SimulatedPreemption().preempt(job, cluster, 0.0)
    SimulatedLauncher(OverheadModel(scale=0.0)).launch(job, [0, 1, 2, 3], cluster, 0.0)
    policy._index.check_invariants()
    policy._index._entries.clear()
    assert gang_select(policy, cluster, job_state) == ({2: 2}, [], 0)


def test_pollux_profile_invalidated_mid_run():
    spec = _draw_spec(104)
    policy = PolluxScheduling()
    sim, rounds = checked_simulator(policy, spec)
    last_arrival = max(job.arrival_time for job in sim.jobs)
    sim._advance_loop(last_arrival / 2)
    changed = [job for job in sim.job_state.runnable_jobs() if job.job_id in policy._gain_tables]
    assert changed
    for job in changed:
        job.max_batch_scale = 4 if job.max_batch_scale == 1 else 1
        policy.invalidate_profile(job.job_id)
    stream = policy.schedule(sim.job_state, sim.cluster_state)
    fresh = PolluxScheduling()
    expected = heap_water_fill(
        stream_running(policy),
        stream_waiting(policy),
        sim.cluster_state.healthy_gpus(),
        lambda job: fresh._table(job)[0],
        RESTART_PENALTY,
    )
    assert [(e.job_id, e.gpu_demand) for e in stream] == expected
    sim._advance_loop(None)
    assert len(rounds) > 1


# ----------------------------------------------------------------------
# Pollux: the static unit order against the heap it replaced
# ----------------------------------------------------------------------


def heap_water_fill(running, waiting, capacity, gains_of, penalty):
    """The heap water-fill Pollux ran before the static order, as entries.

    One guaranteed GPU per running job in arrival order, then a max-heap of
    each job's next marginal gain (ties to the lower job id), a job leaving
    the heap once its next gain is not worth a GPU.
    """
    allocation = {}
    heap = []
    remaining = capacity
    for job in running:
        gpus = 0
        if remaining > 0:
            gpus = allocation[job.job_id] = 1
            remaining -= 1
        gains = gains_of(job)
        if gpus < len(gains) and gains[gpus] > _MIN_GAIN:
            heap.append((-gains[gpus], job.job_id, gpus, gains))
    if remaining > 0:
        for job in waiting:
            gains = gains_of(job)
            if gains and gains[0] - penalty > _MIN_GAIN:
                heap.append((-(gains[0] - penalty), job.job_id, 0, gains))
    heapq.heapify(heap)
    while remaining > 0 and heap:
        _, job_id, gpus, gains = heap[0]
        gpus = allocation[job_id] = gpus + 1
        remaining -= 1
        if gpus < len(gains) and gains[gpus] > _MIN_GAIN:
            heapq.heapreplace(heap, (-gains[gpus], job_id, gpus, gains))
        else:
            heapq.heappop(heap)
    return [
        (job.job_id, allocation[job.job_id])
        for job in (*running, *waiting)
        if job.job_id in allocation
    ]


def stream_running(policy):
    return [job for _, job in policy._index.running_entries()]


def stream_waiting(policy):
    return [job for _, job in policy._index.idle_entries()]


class Capacity:
    """The one thing Pollux reads of a cluster: its healthy GPU count."""

    def __init__(self, gpus):
        self.gpus = gpus

    def healthy_gpus(self):
        return self.gpus


#: Gain values the tables draw from: repeats (ties), values at and around
#: ``_MIN_GAIN``, negatives, and values a restart penalty pushes below it.
GAIN_VALUES = (0.9, 0.5, 0.5, 0.3, 0.3, 0.2, 0.05, 0.04, _MIN_GAIN, 2 * _MIN_GAIN, 0.0, -0.1)


def random_case(rng):
    """Jobs with random (often non-monotone) gain tables, some running.

    The drawn restart penalty is folded into the waiting chains directly,
    so the policy's own constant is never read.
    """
    penalty = rng.choice((0.0, 0.05, 0.3))
    policy = PolluxScheduling()
    job_state = JobState()
    count = rng.randint(0, 8)
    jobs = [
        Job(arrival_time=float(rng.randint(0, 3)), num_gpus=1, duration=1e5, job_id=job_id)
        for job_id in rng.sample(range(1, 30), count)
    ]
    job_state.add_new_jobs(jobs)
    for job in jobs:
        if rng.random() < 0.5:
            job.status = JobStatus.RUNNING
    policy._index.bind(job_state)
    tables = {}
    for job in jobs:
        if rng.random() < 0.3:  # a monotone table now and then
            gains = sorted((rng.choice(GAIN_VALUES) for _ in range(rng.randint(0, 6))), reverse=True)
        else:
            gains = [rng.choice(GAIN_VALUES) for _ in range(rng.randint(0, 6))]
        tables[job.job_id] = gains
        waiting = [gains[0] - penalty, *gains[1:]] if gains else []
        policy._gain_tables[job.job_id] = (gains, _chain_keys(gains[1:]), _chain_keys(waiting))
    running = stream_running(policy)
    units = sum(len(gains) for gains in tables.values())
    capacity = rng.randint(0, len(running) + units + 2)
    return policy, job_state, tables, Capacity(capacity), penalty


def assert_static_order_is_the_heap(seed):
    rng = random.Random(seed)
    policy, job_state, tables, capacity, penalty = random_case(rng)
    allocation = policy.schedule(job_state, capacity)
    expected = heap_water_fill(
        stream_running(policy),
        stream_waiting(policy),
        capacity.healthy_gpus(),
        lambda job: tables[job.job_id],
        penalty,
    )
    assert [(e.job_id, e.gpu_demand) for e in allocation] == expected, seed


def test_chain_keys_are_negated_prefix_minima_cut_at_min_gain():
    assert _chain_keys([0.3, 0.5, 0.2, 0.4, _MIN_GAIN, 0.9]) == [-0.3, -0.3, -0.2, -0.2]
    assert _chain_keys([]) == [] and _chain_keys([0.0, 0.5]) == []


@pytest.mark.parametrize("chunk", range(4))
def test_static_order_is_the_heap_water_fill(chunk):
    for seed in range(chunk * 50, (chunk + 1) * 50):
        assert_static_order_is_the_heap(seed)


@pytest.mark.fuzz
def test_static_order_is_the_heap_water_fill_wide():
    for seed in range(1000, 11000):
        assert_static_order_is_the_heap(seed)


def test_pollux_select_builds_no_entry():
    running = {job_id: [job_id - 1] for job_id in range(1, 4)}
    cluster, job_state = cluster_with({job_id: 2 for job_id in range(1, 7)}, running)
    policy = PolluxScheduling()
    selected, suspended, built = gang_select(policy, cluster, job_state)
    assert selected and built == 0
    policy._index._entries.clear()
    decision = ConsolidatedPlacement().place(
        policy.schedule(job_state, cluster), cluster, job_state
    )
    assert set(decision.to_launch) == set(selected)
    assert not policy._index._entries
