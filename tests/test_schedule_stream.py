"""A schedule is a stream: placement pulls it, the policy works at call time.

``SchedulingPolicy.schedule`` may return a lazy iterable, read at most once,
in the same round, before any job changes state.  These tests pin the three
halves of that contract: placement reads only as far as the healthy GPUs
last; what a policy must do every round (Tiresias' demotions) happens when
``schedule`` is called, read or not; and the entries, read to the end, are
the ones the list-returning implementation produced, round by round, along a
seeded run under cluster churn -- pinned as digests recorded before the
schedule became a stream.  To re-record after an *intended* schedule change:
``PYTHONPATH=src python tests/test_schedule_stream.py``.
"""

import hashlib

import pytest

from repro.cluster.builder import ClusterSpec, build_cluster
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import (
    FifoScheduling,
    GavelScheduling,
    LasScheduling,
    OptimusScheduling,
    PolluxScheduling,
    SrtfScheduling,
    SynergyScheduling,
    ThemisScheduling,
    TiresiasScheduling,
)
from repro.scenarios.spec import FailNodes, ScaleOut, ScenarioSpec
from repro.simulator.engine import Simulator
from repro.workloads import WorkloadSpec

HOUR = 3600.0

#: Contended (60 jobs at 40/h on 16 GPUs), turning heterogeneous (two a100
#: nodes join) and losing a quarter of its nodes for an hour.
SCENARIO = ScenarioSpec(
    name="stream-contract",
    cluster=ClusterSpec(num_nodes=4),
    workload=WorkloadSpec("philly", num_jobs=60, jobs_per_hour=40.0),
    timeline=(
        ScaleOut(at=HOUR, num_nodes=2, gpu_type="a100"),
        FailNodes(at=3 * HOUR, fraction=0.25, recover_after=HOUR),
    ),
)

POLICIES = {
    "fifo": FifoScheduling,
    "las": LasScheduling,
    "srtf": SrtfScheduling,
    "tiresias": TiresiasScheduling,
    "themis": ThemisScheduling,
    "synergy": SynergyScheduling,
    "gavel": GavelScheduling,
    "pollux": PolluxScheduling,
    "optimus": OptimusScheduling,
}

#: sha256 over every full round's (time, [(job id, demand), ...]).
STREAM_DIGESTS = {
    "fifo": "41243ec020d27e7df67eb13a759d0fa1d800342da6beeb8da08d451afa2840c5",
    "gavel": "0deed6c90da646a2eca8efe1307bfea9d4ac14e59311e2c524f90b700daa5ed4",
    "las": "49334c79d405b988b54556809dd06811d476cd76372b79ce8ef56d41b92d3ff6",
    "optimus": "d19f496a6a50380ea0195e1204c82f185e0ef7c8da950d61ce76ce5a08de48de",
    "pollux": "bc8ee4d654f49a20a204917e0aca9248efda45a9d8f0123cc297bab5540d0051",
    "srtf": "fd9c286f39e8592e4d13e95b7e8c29ab57adabefc91503091d196502c027ac48",
    "synergy": "41243ec020d27e7df67eb13a759d0fa1d800342da6beeb8da08d451afa2840c5",
    "themis": "2041539e0f51f796342e087c2166ce3925d22a47f1279cdf9b360f37736c8bae",
    "tiresias": "f658ec0bd6986452a6a4af559bf018557060b399f5bca9e59eadbcf32c912a41",
}


def simulator(policy):
    compiled = SCENARIO.compile(seed=9)
    return Simulator(
        compiled.build_cluster(),
        compiled.trace.fresh_jobs(),
        policy,
        round_duration=SCENARIO.round_duration,
        cluster_manager=compiled.make_cluster_manager(),
    )


def schedule_digest(policy) -> str:
    """Run the scenario, reading each round's schedule to the end."""
    sim = simulator(policy)
    digest = hashlib.sha256()
    schedule = policy.schedule

    def read_to_the_end(job_state, cluster_state):
        entries = list(schedule(job_state, cluster_state))
        rows = [(e.job_id, e.gpu_demand) for e in entries]
        digest.update(repr((job_state.current_time, rows)).encode())
        return entries

    policy.schedule = read_to_the_end
    sim.run()
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_entries_read_to_the_end_are_the_recorded_lists(name):
    assert schedule_digest(POLICIES[name]()) == STREAM_DIGESTS[name]


def test_placement_reads_only_as_far_as_the_gpus_last():
    job_state = JobState()
    cluster = build_cluster(num_nodes=4, gpus_per_node=4)
    job_state.add_new_jobs(
        [Job(arrival_time=float(i), num_gpus=1, duration=1000.0) for i in range(1000)]
    )
    pulled = 0

    def counted(stream):
        nonlocal pulled
        for entry in stream:
            pulled += 1
            yield entry

    policy = TiresiasScheduling()
    stream = policy.schedule(job_state, cluster)
    decision = ConsolidatedPlacement().place(counted(stream), cluster, job_state)
    assert len(decision.to_launch) == 16
    # Sixteen selected, one more pulled to see the GPUs are gone ...
    assert pulled <= 17
    # ... and the policy built no entry for the 983 jobs behind them.
    assert len(policy._index._entries) == pulled


def test_an_unwrapped_stream_selects_without_building_entries():
    """The twin of the test above, unwrapped: ``place`` asks the stream to
    select, which reads the index's tiers and builds no entry at all."""
    job_state = JobState()
    cluster = build_cluster(num_nodes=4, gpus_per_node=4)
    job_state.add_new_jobs(
        [Job(arrival_time=float(i), num_gpus=1, duration=1000.0) for i in range(1000)]
    )
    policy = TiresiasScheduling()
    stream = policy.schedule(job_state, cluster)
    decision = ConsolidatedPlacement().place(stream, cluster, job_state)
    assert len(decision.to_launch) == 16
    assert not policy._index._entries


def test_tiresias_demotes_at_call_time_even_if_nothing_is_read():
    """A running job past its demotion bound moves to queue 1 when
    ``schedule`` is called, whether or not the stream is read."""
    job_state = JobState()
    cluster = build_cluster(num_nodes=1)
    running = Job(arrival_time=0.0, num_gpus=1, duration=10_000.0)
    waiting = Job(arrival_time=10.0, num_gpus=1, duration=10_000.0)
    job_state.add_new_jobs([running, waiting])
    policy = TiresiasScheduling()

    def order():
        return [e.job_id for e in policy.schedule(job_state, cluster)]

    assert order() == [running.job_id, waiting.job_id]
    cluster.assign(running.job_id, [0])
    running.allocated_gpus = [0]
    running.status = JobStatus.RUNNING  # bounded at 3600 s: 3600 GPU-s on one GPU
    running.attained_service = 4000.0
    job_state.current_time = 4000.0
    policy.schedule(job_state, cluster)  # never read
    assert policy._index.running_key_of(running.job_id)[0] == 1
    assert policy._demote_at == {running.job_id: 28_800.0}  # the next threshold's bound
    assert order() == [waiting.job_id, running.job_id]


@pytest.mark.parametrize(
    "factory,memo",
    [
        (PolluxScheduling, "_gain_tables"),
        (TiresiasScheduling, "_demote_at"),
    ],
    ids=["pollux", "tiresias"],
)
def test_per_job_memos_hold_runnable_jobs_only(factory, memo):
    policy = factory()
    sim = simulator(policy)
    last_arrival = max(job.arrival_time for job in sim.jobs)
    for stop_time in (HOUR, 3.5 * HOUR, last_arrival, None):
        sim._advance_loop(stop_time)
        runnable = {job.job_id for job in sim.job_state.runnable_jobs()}
        assert set(getattr(policy, memo)) <= runnable, stop_time
    assert not runnable and not getattr(policy, memo)


if __name__ == "__main__":
    for name, factory in sorted(POLICIES.items()):
        print(f'    "{name}": "{schedule_digest(factory())}",')
