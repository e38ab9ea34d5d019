"""A schedule is a stream: placement pulls it, the policy works at call time.

``SchedulingPolicy.schedule`` may return a lazy iterable, read at most once,
in the same round, before any job changes state.  These tests pin the three
halves of that contract: placement reads only as far as the healthy GPUs
last; what a policy must do every round (Tiresias' promotions) happens when
``schedule`` is called, read or not; and the entries, read to the end, are
the ones the list-returning implementation produced, round by round, along a
seeded run under cluster churn -- pinned as digests recorded before the
schedule became a stream.  To re-record after an *intended* schedule change:
``PYTHONPATH=src python tests/test_schedule_stream.py``.
"""

import hashlib

import pytest

from repro.cluster.builder import ClusterSpec, build_cluster
from repro.core.job import Job
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
    "fifo-hol-blocking": lambda: FifoScheduling(hol_blocking=True),
    "las": LasScheduling,
    "srtf": SrtfScheduling,
    "tiresias": TiresiasScheduling,
    "tiresias-starve": lambda: TiresiasScheduling(
        queue_thresholds=(900.0, 3600.0), starvation_promote_after=1800.0
    ),
    "themis": ThemisScheduling,
    "synergy": SynergyScheduling,
    "gavel": GavelScheduling,
    "pollux": PolluxScheduling,
    "optimus": OptimusScheduling,
}

#: sha256 over every full round's (time, [(job id, demand, type), ...]).
STREAM_DIGESTS = {
    "fifo": "4af2a3d7eb24c045fa45036f9542768a1381ffadc53a57fc44e4d4786df46266",
    "fifo-hol-blocking": "6e0bf7d01004d39f585115a7de05d93372af64793ed4fc8b68ec6f5c40f0efea",
    "gavel": "9be3ee52da5599929caa36e598a0e2854371e7697ecc92891b4486a974e751e1",
    "las": "b2f89feadda5b0ac0a11ab5c692b11022db70cc88415b3ce9a07cfd424d87267",
    "optimus": "2e9153fb3a8b72a0197c170f98ed7bdfacffb2110dc95f256a34d79ef37a3bb8",
    "pollux": "6ecd75a9ab8ad5c97050dce473fa00315e6fbffb0bb09c19b1335095a30a3594",
    "srtf": "ea02a573ee31fc4725c03c1e01f2922a3ad87b3f4053bb12c1bf4104119fe589",
    "synergy": "e238a87f60f7e0c4a1891d2f9954857012084484e30146e0129469acf7c67129",
    "themis": "39ed22ea4b60817e0d39bb48caf277dcc567e35b2f509b7e53347933e5f33966",
    "tiresias": "17f1f12efc6d989e4e54cef3c7c52468e6e23a91c284802c88e87390d0abd885",
    "tiresias-starve": "23e71c18fd10c5b6494c17c06ca41c17edcd7dad6465197da1cd5a55cc13af58",
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
        rows = [(e.job_id, e.gpu_demand, e.gpu_type) for e in entries]
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


def test_tiresias_promotes_at_call_time_even_if_nothing_is_read():
    job_state = JobState()
    cluster = build_cluster(num_nodes=1)
    demoted = Job(arrival_time=0.0, num_gpus=1, duration=1000.0)
    demoted.attained_service = 500.0  # past the one threshold: queue 1
    fresh = Job(arrival_time=10.0, num_gpus=1, duration=1000.0)
    job_state.add_new_jobs([demoted, fresh])
    policy = TiresiasScheduling(queue_thresholds=(100.0,), starvation_promote_after=1000.0)

    def order():
        return [e.job_id for e in policy.schedule(job_state, cluster)]

    assert order() == [fresh.job_id, demoted.job_id]
    job_state.current_time = 2000.0  # the demoted job has waited 2000 s
    policy.schedule(job_state, cluster)  # never read
    assert policy._index.idle_key_of(demoted.job_id)[0] == 0
    assert not policy._promote_heap
    assert order() == [demoted.job_id, fresh.job_id]


@pytest.mark.parametrize(
    "factory,memo",
    [
        (PolluxScheduling, "_gain_tables"),
        (GavelScheduling, "_best_type_by_job"),
        (TiresiasScheduling, "_last_run_time"),
    ],
    ids=["pollux", "gavel", "tiresias"],
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
