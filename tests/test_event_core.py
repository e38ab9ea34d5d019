"""Unit and regression tests for the skip executor, ``Simulator._skip``.

Covers the computed clock (``current_time == round_number * round_duration``
through skips of any length, horizon counting against that product), the
epoch lifetime, the one skip's accounting (nothing folded
but completing jobs, each one ordinary round), and the
simultaneous-event regression: an arrival, a completion and a cluster-churn
firing all landing on the *same* round boundary must replay the stepping
loop (``fast_forward=False``) bit-identically.
"""

import pickle

import pytest

from repro.cluster.builder import build_cluster
from repro.core.job import Job, JobStatus
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import PolluxScheduling, TiresiasScheduling
from repro.policies.scheduling.fifo import FifoScheduling
from repro.scenarios.registry import get_scenario
from repro.simulator.engine import Simulator
from repro.simulator.execution import _Epoch
from repro.telemetry.runspec import RunSpec
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
    """The seeded closed form equals a one-round-at-a-time count."""
    trace = generate_philly_trace(num_jobs=4, jobs_per_hour=4.0, seed=1)
    sim = make_sim(trace.fresh_jobs(), round_duration=rd)
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
                assert sim._rounds_until(horizon, cap) == expected, (
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
# Epoch lifetime
# ----------------------------------------------------------------------


def live_heap_jobs(model):
    """Job ids with a valid completion-heap entry (stale ones are popped lazily)."""
    return {job_id for _, job_id, serial, epoch in model._completions if epoch.serial == serial}


def per_job_state(sim):
    """Every id-keyed container a run keeps, by name."""
    policy = sim.scheduling_policy
    model = sim.execution_model
    return {
        "epochs": model._records,
        "opening": model._opening,
        "completion heap": live_heap_jobs(model),
        "entries": policy._index._entries,
        "demotion bounds": getattr(policy, "_demote_at", {}),
    }


def test_epochs_are_dropped_when_their_job_leaves_running():
    """Pollux + churn takes the decision-stable path, which used to leak.

    Every other piece of per-job state has the same lifetime -- nothing
    outlives its job, everything is empty after a drained run and survives
    pickling at a pause -- so it is held to the same bound here: the
    execution model's epoch records, queued opens and completion heap, the
    registry's newly-finished ids, the priority index's reused schedule
    entries and (under Tiresias, a gang policy) the policy's demotion
    bounds.  An epoch goes when its job leaves RUNNING -- evicted,
    suspended or completed -- so at every pause the epochs are exactly the
    running jobs.
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
            running = {job.job_id for job in sim.job_state.running_jobs()}
            model = sim.execution_model
            for name, kept in per_job_state(sim).items():
                peak[name] = max(peak[name], len(kept))
                assert set(kept) <= unfinished, name
            # Placement asks the stream to select, which builds no entry;
            # whatever entries were built belong to runnable jobs only.
            runnable = {job.job_id for job in sim.job_state.runnable_jobs()}
            assert set(scheduling._index._entries) <= runnable
            assert set(model._records) | set(model._opening) == running
            # A pause hands control back: everything settled, nothing
            # unpruned.
            assert all(
                epoch.round == model._fold_round for epoch in model._records.values()
            )
            assert not sim.job_state._newly_finished
            if step == 4:
                resumed = pickle.loads(pickle.dumps(sim))
                assert not resumed.execution_model._records
                assert all(job._epoch is None for job in resumed.job_state.all_jobs())
        assert sim._advance_loop(None) is True
        assert resumed._advance_loop(None) is True
        assert_identical(sim.build_result(), resumed.build_result())
        assert peak["epochs"] > 0 and peak["completion heap"] > 0
        if isinstance(scheduling, TiresiasScheduling):
            assert peak["demotion bounds"] > 0
        for drained in (sim, resumed):
            assert not drained.job_state.count_with_status(JobStatus.RUNNING)
            assert not drained.job_state._newly_finished
            assert not drained.execution_model._completions
            for name, kept in per_job_state(drained).items():
                assert not kept, name


# ----------------------------------------------------------------------
# The one skip: a skip folds nothing but completing jobs
# ----------------------------------------------------------------------


def trace_skips(sim, monkeypatch):
    """Wrap ``sim``'s skip executor; returns what its skips did.

    ``skips``: ``(through_completions, end round, earliest probed completion
    of a still-running job)`` per skip.  ``settles``: ``(skip, refolded)``
    per settle, where ``skip`` is the ``through_completions`` of the skip it
    ran in (``None``: outside one) and refolded means a fresh
    ``steady_scan`` instead of the probe's state.  ``completed`` / ``advanced``: the ids
    that completed inside a skip, and that ``advance_running`` ran inside
    one.
    """
    execution = sim.execution_model
    skip, settle = sim._skip, _Epoch.settle
    scan, advance_running = execution.steady_scan, execution.advance_running
    trace = {"skips": [], "settles": [], "completed": set(), "advanced": set()}
    skipping = []
    scans = []  # one list per open settle

    def completed():
        return {
            job.job_id
            for job in sim.job_state.all_jobs()
            if job.status is JobStatus.COMPLETED
        }

    def traced_skip(horizon, through_completions=True):
        before = completed()
        skipping.append(through_completions)
        try:
            return skip(horizon, through_completions)
        finally:
            skipping.pop()
            trace["completed"] |= completed() - before
            upcoming = [
                epoch.completes
                for epoch in execution._records.values()
                if epoch.completes is not None and epoch.round is not None
            ]
            trace["skips"].append(
                (through_completions, sim.manager.round_number, min(upcoming, default=None))
            )

    def traced_settle(epoch):
        if epoch.round == epoch.model._fold_round:
            return  # already settled: nothing folds
        scans.append([])
        try:
            settle(epoch)
        finally:
            trace["settles"].append((skipping[-1] if skipping else None, bool(scans.pop())))

    def traced_scan(*args):
        if scans:
            scans[-1].append(args)
        return scan(*args)

    def traced_advance_running(jobs, *args):
        jobs = list(jobs)
        if skipping:
            trace["advanced"].update(job.job_id for job in jobs)
        advance_running(jobs, *args)

    sim._skip = traced_skip
    monkeypatch.setattr(_Epoch, "settle", traced_settle)
    execution.steady_scan = traced_scan
    execution.advance_running = traced_advance_running
    return trace


def accounting(result):
    return {
        job.job_id: (
            job.work_done.hex(),
            job.attained_service.hex(),
            job.pending_overhead.hex(),
            None if job.completion_time is None else job.completion_time.hex(),
        )
        for job in result.jobs
    }


def test_low_load_skips_fold_only_completing_jobs(monkeypatch):
    """Gang skips run through completions and fold nothing else.

    A job settles inside a skip only to complete, from its probe's state
    (no refold), in an ordinary ``advance_running`` round.
    """

    def low_load_fifo(fast_forward=True):
        return Simulator(
            cluster_state=build_cluster(num_nodes=16, gpus_per_node=4),
            jobs=generate_philly_trace(num_jobs=40, jobs_per_hour=0.5, seed=11).fresh_jobs(),
            scheduling_policy=FifoScheduling(),
            placement_policy=ConsolidatedPlacement(),
            round_duration=ROUND,
            fast_forward=fast_forward,
        )

    sim = low_load_fifo()
    trace = trace_skips(sim, monkeypatch)
    result = sim.run()
    stepping = low_load_fifo(fast_forward=False).run()
    assert all(through for through, _, _ in trace["skips"])
    inside = [refolded for skip, refolded in trace["settles"] if skip is not None]
    assert inside and not any(inside)
    assert len(inside) == len(trace["completed"])
    assert trace["completed"] and trace["completed"] == trace["advanced"]
    assert accounting(result) == accounting(stepping)
    assert result.round_log == stepping.round_log


@pytest.mark.parametrize("policy", ["pollux", "tiresias"])
def test_decision_stable_skip_stops_before_the_first_completion(policy, monkeypatch):
    """The skip ends at the round before the first probed completion.

    Nothing is folded inside a decision-stable skip: the job completing next
    settles in the full round after it, from its probe's state.
    """
    spec = RunSpec(policy=policy, seed=3)
    sim = spec.build()
    trace = trace_skips(sim, monkeypatch)
    result = sim.run()
    stable = [(end, upcoming) for through, end, upcoming in trace["skips"] if not through]
    assert stable
    assert all(upcoming is None or upcoming > end for end, upcoming in stable)
    assert any(upcoming == end + 1 for end, upcoming in stable)
    assert not any(skip is False for skip, _ in trace["settles"])
    assert any(not refolded for _, refolded in trace["settles"])
    assert any(refolded for _, refolded in trace["settles"])
    stepping = spec.build(fast_forward=False).run()
    assert accounting(result) == accounting(stepping)
    assert result.round_log == stepping.round_log


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
# Run-length round log
# ----------------------------------------------------------------------


def test_round_log_parity_is_run_for_run():
    """Skips append whole runs, stepping appends rows: the runs still agree."""
    trace = generate_philly_trace(num_jobs=30, jobs_per_hour=5.0, seed=17)
    default, stepping = (
        make_sim(trace.fresh_jobs(), fast_forward=fast_forward).run()
        for fast_forward in (True, False)
    )
    assert_identical(default, stepping)
    assert list(default.round_log.runs()) == list(stepping.round_log.runs())
    assert list(default.round_log) == list(stepping.round_log)
    assert len(default.round_log) == default.rounds
    assert len(list(default.round_log.runs())) < default.rounds / 2


def test_default_run_is_deterministic():
    trace = generate_philly_trace(num_jobs=25, jobs_per_hour=6.0, seed=5)
    first = make_sim(trace.fresh_jobs()).run()
    second = make_sim(trace.fresh_jobs()).run()
    assert_identical(first, second)
