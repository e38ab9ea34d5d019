"""The automatic synthesizer's shadow runs are the engine's own runs.

A shadow run is a :class:`Simulator` forked from the live state, so forking
a live run and running the fork forward must reproduce the live run bit for
bit -- stepping or fast-forwarded.  The switching trace of a seeded bursty
run is pinned, and a shadow must score the jobs the live admission policy is
still holding.
"""

import hashlib
from functools import partial

import pytest

from repro.cluster.builder import build_cluster
from repro.core.exceptions import ConfigurationError
from repro.policies.scheduling import SCHEDULING_POLICIES
from repro.simulator.engine import Simulator
from repro.synthesizer import AutoSchedulerSynthesizer, AverageJct, auto_scheduler
from repro.workloads.bursty import make_bursty_trace
from repro.workloads.philly import generate_philly_trace

ROUND = 300.0
HORIZON = 24


def _job_row(job):
    return (job.work_done, job.attained_service, job.pending_overhead, job.completion_time, job.status)


@pytest.mark.parametrize("policy", ["fifo", "srtf", "tiresias", "pollux"])
def test_shadow_run_equals_live_run(policy, monkeypatch):
    trace = make_bursty_trace(num_jobs=12, base_jobs_per_hour=6.0, seed=4)
    live = Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=SCHEDULING_POLICIES[policy](),
        round_duration=ROUND,
        fast_forward=False,
    )
    start = int(max(j.arrival_time for j in trace.jobs) // ROUND) + 1
    assert not live._advance_loop(stop_time=start * ROUND)
    assert live.manager.round_number == start

    synth = AutoSchedulerSynthesizer([(policy, "accept-all")], horizon_rounds=HORIZON)
    forks = []
    live_schedule = live.scheduling_policy.schedule

    def tap(job_state, cluster_state):
        # The synthesizer forks from inside the live round's schedule call.
        if not forks:
            for fast_forward in (False, True):
                # A run's skip predicate is fixed when it is built.
                monkeypatch.setattr(
                    auto_scheduler, "Simulator", partial(Simulator, fast_forward=fast_forward)
                )
                forks.append(synth._fork((policy, "accept-all"), job_state, cluster_state))
                assert forks[-1].fast_forward is fast_forward
            monkeypatch.undo()
        return live_schedule(job_state, cluster_state)

    live.scheduling_policy.schedule = tap
    assert not live._advance_loop(stop_time=(start + HORIZON) * ROUND)
    expected = {job.job_id: _job_row(job) for job in live.job_state.all_jobs()}
    finished_in_window = [
        row for row in expected.values()
        if row[3] is not None and row[3] >= start * ROUND
    ]
    assert finished_in_window and len(finished_in_window) < len(expected)

    for fork in forks:
        assert not fork._advance_loop(stop_time=fork.manager.stop_time)
        assert fork.manager.current_time == live.manager.current_time
        got = {job.job_id: _job_row(job) for job in fork.job_state.all_jobs()}
        assert got == expected, f"fork (fast_forward={fork.fast_forward}) diverged"
    assert [fork.fast_forward for fork in forks] == [False, True]


def _run_synthesizer(trace, synth):
    sim = Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=synth,
        admission_policy=synth,
    )
    return sim.run()


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


CHOICE_LOG_SHA256 = "09e28163babd4e3d9d17db6635301420253d8f3ca7bdc1fc02140dcfd8c66ee1"
COMPLETIONS_SHA256 = "b82fd26007e3e01d6ab0c0221442c632092e22d14d747f7a7a81610767f6ba2f"


def test_bursty_switching_trace_is_pinned():
    """fifo/srtf/las x accept-all on a seeded bursty trace, values recorded
    with the hand-written shadow loop the engine-backed fork replaced."""
    trace = make_bursty_trace(num_jobs=36, base_jobs_per_hour=6.0, seed=4)
    synth = AutoSchedulerSynthesizer.from_grid(
        ["fifo", "srtf", "las"], ["accept-all"], horizon_rounds=HORIZON
    )
    result = _run_synthesizer(trace, synth)
    log = synth.choice_log
    assert len(log) == 71
    assert {label for _, label in log} == {"fifo/accept-all", "srtf/accept-all", "las/accept-all"}
    assert _digest(log) == CHOICE_LOG_SHA256
    completions = sorted((j.job_id, j.completion_time.hex()) for j in result.jobs)
    assert _digest(completions) == COMPLETIONS_SHA256


def test_shadow_scores_jobs_held_by_live_admission():
    trace = generate_philly_trace(num_jobs=40, jobs_per_hour=20.0, seed=5)
    calls = []

    class Recording(AverageJct):
        def score(self, jobs, horizon_end):
            calls.append(
                ({j.job_id for j in synth.pending_jobs()}, {j.job_id for j in jobs})
            )
            return super().score(jobs, horizon_end)

    synth = AutoSchedulerSynthesizer.from_grid(
        ["fifo", "srtf"], ["user-quota"], horizon_rounds=HORIZON, objective=Recording()
    )
    result = _run_synthesizer(trace, synth)
    held = [pending for pending, _ in calls if pending]
    assert len(held) > len(calls) // 2
    for pending, scored in calls:
        assert pending <= scored
    assert len(result.finished_jobs()) == 40


def test_grid_is_validated_against_the_registries():
    synth = AutoSchedulerSynthesizer.from_grid(["fifo", "las"], ["accept-all", "accept-1x"])
    assert synth.grid == [
        ("fifo", "accept-all"), ("fifo", "accept-1x"), ("las", "accept-all"), ("las", "accept-1x"),
    ]
    assert synth.current_name == "fifo/accept-all"
    for kwargs in (
        {"grid": [("nope", "accept-all")]},
        {"grid": [("fifo", "nope")]},
        {"grid": [("fifo", "accept-all")], "placement": "nope"},
        {"grid": []},
    ):
        with pytest.raises(ConfigurationError):
            AutoSchedulerSynthesizer(**kwargs)
