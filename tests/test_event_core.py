"""Unit and regression tests for the skip executor (the event core).

Covers the computed clock (``current_time == round_number * round_duration``
through skips of any length, horizon counting against that product), the
manager-subclass rule (an overridden ``advance_time`` keeps the per-round
light loop), the completion-probe lifetime, and the simultaneous-event
regression: an arrival, a completion and a cluster-churn firing all landing
on the *same* round boundary must replay the stepping loop
(``fast_forward=False``) bit-identically.
"""

import pickle

import pytest

from repro.cluster.builder import build_cluster
from repro.core.blox_manager import BloxManager
from repro.core.job import Job, JobStatus
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import PolluxScheduling, TiresiasScheduling
from repro.policies.scheduling.fifo import FifoScheduling
from repro.scenarios.registry import get_scenario
from repro.simulator.engine import Simulator
from repro.workloads.philly import generate_philly_trace

ROUND = 300.0


def make_sim(jobs, cluster_manager=None, round_duration=ROUND, **kwargs):
    return Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=jobs,
        scheduling_policy=FifoScheduling(),
        placement_policy=ConsolidatedPlacement(),
        round_duration=round_duration,
        cluster_manager=cluster_manager,
        **kwargs,
    )


def assert_identical(first, second):
    assert {j.job_id: j.completion_time for j in first.jobs} == {
        j.job_id: j.completion_time for j in second.jobs
    }
    assert first.round_log == second.round_log
    assert first.rounds == second.rounds
    assert first.end_time == second.end_time


# ----------------------------------------------------------------------
# Computed clock
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rd", [300.0, 60.0, 287.5, 100.1, 33.3])
def test_rounds_until_counts_rounds_starting_before_the_horizon(rd):
    """The seeded closed form equals the light loop's one-round-at-a-time test."""
    trace = generate_philly_trace(num_jobs=4, jobs_per_hour=4.0, seed=1)
    sim = make_sim(trace.fresh_jobs(), round_duration=rd)
    core = sim._event_core
    for base in (0, 1, 7, 1001):
        sim.manager.round_number = base
        for horizon in (
            base * rd,
            (base + 0.5) * rd,
            (base + 1) * rd,
            (base + 3) * rd,
            (base + 3.5) * rd,
            (base + 1000) * rd,
            float("inf"),
        ):
            for cap in (0, 1, 5, 2000):
                expected = 0
                while expected < cap and (base + expected + 1) * rd < horizon:
                    expected += 1
                assert core._rounds_until(horizon, cap) == expected, (
                    rd, base, horizon, cap,
                )


@pytest.mark.parametrize("rd", [100.1, 33.3])
def test_clock_is_round_number_times_duration_after_skips(rd):
    """Fractional round durations: the clock is computed, never accumulated."""
    trace = generate_philly_trace(num_jobs=20, jobs_per_hour=1.0, seed=3)
    sim = make_sim(trace.fresh_jobs(), round_duration=rd, max_rounds=2_000_000)
    full_rounds = []
    schedule = sim.scheduling_policy.schedule
    sim.scheduling_policy.schedule = lambda *args: (
        full_rounds.append(sim.manager.round_number) or schedule(*args)
    )
    for stop_time in (5_000.0, 20_000.0, 50_000.0):
        assert sim._advance_loop(stop_time) is False
        assert sim.manager.current_time == sim.manager.round_number * rd
    assert sim._advance_loop(None) is True
    result = sim.build_result()
    assert result.end_time == result.rounds * rd
    # Most rounds were skipped, every logged row carries the computed time,
    # and the whole run matches stepping.
    assert len(full_rounds) < result.rounds / 4
    assert [r.round_number for r in result.round_log] == list(range(result.rounds))
    assert all(r.time == r.round_number * rd for r in result.round_log)
    stepping = make_sim(
        trace.fresh_jobs(), round_duration=rd, max_rounds=2_000_000, fast_forward=False
    ).run()
    assert_identical(result, stepping)


# ----------------------------------------------------------------------
# Manager subclasses
# ----------------------------------------------------------------------


class CountingManager(BloxManager):
    """Overrides ``advance_time``, so it must see one call per round."""

    advances = 0

    def advance_time(self):
        super().advance_time()
        self.advances += 1


def test_manager_overriding_advance_time_takes_the_light_loop():
    trace = generate_philly_trace(num_jobs=30, jobs_per_hour=5.0, seed=17)
    sim = make_sim(trace.fresh_jobs(), manager_factory=CountingManager)
    assert sim.fast_forward and not sim._stride_accelerable
    result = sim.run()
    assert sim.manager.advances == result.rounds
    assert_identical(result, make_sim(trace.fresh_jobs(), fast_forward=False).run())
    # The same trace on the plain manager does batch (the comparison above is
    # not vacuous).
    assert make_sim(trace.fresh_jobs())._stride_accelerable


# ----------------------------------------------------------------------
# Completion-probe lifetime
# ----------------------------------------------------------------------


def per_job_state(sim):
    """Every id-keyed container a run keeps, by name."""
    policy = sim.scheduling_policy
    return {
        "probes": sim._event_core._probes,
        "rates": sim.execution_model._rate_cache,
        "owed": sim.execution_model._owed,
        "entries": policy._index._entries,
        "wait clock": getattr(policy, "_last_run_time", {}),
    }


def test_completion_probes_are_dropped_when_their_job_is_pruned():
    """Pollux + churn takes the decision-stable path, which used to leak.

    Every other piece of per-job state has the same lifetime -- nothing
    outlives its job, everything is empty after a drained run and survives
    pickling at a pause -- so it is held to the same bound here: the
    execution model's rate cache and owed application metrics, the
    registry's newly-finished ids, and (under Tiresias, a gang policy) the
    priority index's reused schedule entries and the policy's wait clock.
    """
    for scheduling in (PolluxScheduling(), TiresiasScheduling()):
        compiled = get_scenario("failure-storm", smoke=True).compile(seed=5)
        sim = Simulator(
            cluster_state=compiled.build_cluster(),
            jobs=compiled.trace.fresh_jobs(),
            scheduling_policy=scheduling,
            placement_policy=ConsolidatedPlacement(),
            round_duration=compiled.spec.round_duration,
            cluster_manager=compiled.make_cluster_manager(),
            tracked_job_ids=compiled.trace.tracked_ids(),
        )
        peak = {name: 0 for name in per_job_state(sim)}
        last_arrival = max(job.arrival_time for job in sim.jobs)
        resumed = None
        for step in range(1, 9):
            sim._advance_loop(step * last_arrival / 8)
            unfinished = {job.job_id for job in sim.job_state.active_jobs()}
            for name, kept in per_job_state(sim).items():
                peak[name] = max(peak[name], len(kept))
                assert set(kept) <= unfinished, name
            # A pause hands control back: nothing is owed, nothing unpruned.
            assert not sim.execution_model._owed
            assert not sim.job_state._newly_finished
            if step == 4:
                resumed = pickle.loads(pickle.dumps(sim))
        assert sim._advance_loop(None) is True
        assert resumed._advance_loop(None) is True
        assert_identical(sim.build_result(), resumed.build_result())
        assert peak["probes"] > 0 and peak["rates"] > 0
        if isinstance(scheduling, TiresiasScheduling):
            assert peak["entries"] > 0 and peak["wait clock"] > 0
        for drained in (sim, resumed):
            assert not drained.job_state.count_with_status(JobStatus.RUNNING)
            assert not drained.job_state._newly_finished
            for name, kept in per_job_state(drained).items():
                assert not kept, name


# ----------------------------------------------------------------------
# Simultaneous-event regression
# ----------------------------------------------------------------------


class BoundaryChurn:
    """Fails one node at an exact round boundary, recovers it later."""

    name = "boundary-churn"

    def __init__(self, fail_at, recover_at, node_id=3):
        self.fail_at = fail_at
        self.recover_at = recover_at
        self.node_id = node_id
        self.failed = False
        self.recovered = False

    def update(self, cluster_state, current_time):
        if not self.failed and current_time >= self.fail_at:
            self.failed = True
            return cluster_state.mark_node_failed(self.node_id)
        if not self.recovered and current_time >= self.recover_at:
            self.recovered = True
            cluster_state.mark_node_recovered(self.node_id)
        return []

    def next_event_time(self, current_time):
        if not self.failed:
            return self.fail_at
        if not self.recovered:
            return self.recover_at
        return None

    def drain_applied(self):
        return []


def _collision_jobs():
    # Job 1's completion lands exactly on t=1500 (a round boundary): its
    # generic-model launch overhead eats 20 s of round 0, so a duration of
    # 5 * ROUND - 20 finishes precisely at the end of round 4.  Job 2
    # *arrives* at t=1500, and BoundaryChurn fails a node at t=1500 -- a
    # three-way simultaneous event at one boundary.
    return [
        Job(arrival_time=0.0, num_gpus=4, duration=5 * ROUND - 20.0, job_id=1),
        Job(arrival_time=1500.0, num_gpus=4, duration=2 * ROUND, job_id=2),
        Job(arrival_time=1500.0, num_gpus=2, duration=3 * ROUND, job_id=3),
    ]


def test_simultaneous_arrival_completion_and_churn_parity():
    default, stepping = (
        make_sim(
            _collision_jobs(),
            cluster_manager=BoundaryChurn(fail_at=1500.0, recover_at=2400.0),
            fast_forward=fast_forward,
        ).run()
        for fast_forward in (True, False)
    )
    assert_identical(default, stepping)
    completions = {j.job_id: j.completion_time for j in default.jobs}
    # The collision actually happened: job 1 completed at the same boundary
    # where jobs 2/3 arrived and the churn fired.
    assert completions[1] == 1500.0
    assert all(t is not None for t in completions.values())


def test_simultaneous_events_parity_without_churn():
    """Arrival + completion tied at one boundary, static membership."""
    default = make_sim(_collision_jobs()).run()
    assert_identical(default, make_sim(_collision_jobs(), fast_forward=False).run())
    completions = {j.job_id: j.completion_time for j in default.jobs}
    assert completions[1] == 1500.0


# ----------------------------------------------------------------------
# Streaming configuration
# ----------------------------------------------------------------------


def test_round_log_disabled_parity():
    """round_log_limit=0 (the streaming configuration) keeps parity with stepping."""
    trace = generate_philly_trace(num_jobs=30, jobs_per_hour=5.0, seed=17)
    default, stepping = (
        make_sim(trace.fresh_jobs(), round_log_limit=0, fast_forward=fast_forward).run()
        for fast_forward in (True, False)
    )
    assert {j.job_id: j.completion_time for j in default.jobs} == {
        j.job_id: j.completion_time for j in stepping.jobs
    }
    assert default.rounds == stepping.rounds
    assert default.end_time == stepping.end_time
    assert list(default.round_log) == list(stepping.round_log) == []


def test_default_run_is_deterministic():
    trace = generate_philly_trace(num_jobs=25, jobs_per_hour=6.0, seed=5)
    first = make_sim(trace.fresh_jobs()).run()
    second = make_sim(trace.fresh_jobs()).run()
    assert_identical(first, second)
