"""Deferred progress: a running job's progress is an epoch, settled on read.

Where the skip executor may run (drift-free rates, no metric collector, the
stock clock) the execution model keeps one record per running job and a
completion heap: a full round folds only the jobs completing in it, and a
read of ``work_done`` / ``attained_service`` / ``pending_overhead`` settles
the job through the ``steady_scan`` replay.  The stepping loop
(``fast_forward=False``) still folds every running job every round, so it is
the oracle here:

* reading every job at every full round of a default run sees, bit for bit,
  what stepping has at that round -- progress and application metrics --
  and a run that reads nothing ends in the same per-job state;
* a deferred job read mid-round, a simulator pickled at a pause, a
  ``snapshot()``, a ``copy_static()`` and a pickled job all see settled
  values, nothing of an epoch crosses a pickle, and a write settles the job
  and restarts its epoch;
* keying an epoch on the job's allocation version alone is sound: a
  membership change reaches a running job only by evicting it;
* on a contended run, a full round touches only the jobs that complete,
  start an epoch or are read (exact totals pinned).
"""

import pickle

import pytest

from repro.cluster.builder import build_cluster
from repro.core.job import JobStatus
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import SCHEDULING_POLICIES, PolluxScheduling, TiresiasScheduling
from repro.scenarios.registry import get_scenario
from repro.simulator.engine import Simulator
from repro.simulator.execution import _Epoch
from repro.workloads.philly import generate_philly_trace
from test_event_parity_fuzz import (
    FIXED_CORPUS_SEEDS,
    FUZZ_SWEEP_SEEDS,
    ScriptedChurn,
    _draw_spec,
)
from test_schedule_golden import job_state_hash


def build(spec, fast_forward):
    """The simulator of one drawn parity-fuzz spec."""
    trace = generate_philly_trace(
        num_jobs=spec["jobs"], jobs_per_hour=spec["jobs_per_hour"], seed=spec["seed"]
    )
    return Simulator(
        cluster_state=build_cluster(num_nodes=spec["nodes"], gpus_per_node=spec["gpus_per_node"]),
        jobs=trace.fresh_jobs(),
        scheduling_policy=SCHEDULING_POLICIES[spec["policy"]](),
        placement_policy=PLACEMENT_POLICIES[spec["placement"]](),
        round_duration=spec["round_duration"],
        cluster_manager=ScriptedChurn(list(spec["churn"])) if spec["churn"] else None,
        fast_forward=fast_forward,
    )


def progress(job):
    """The three progress fields (read through the descriptors), as hex."""
    return (job.work_done.hex(), job.attained_service.hex(), job.pending_overhead.hex())


def metrics(job):
    return sorted((key, repr(value)) for key, value in job.metrics.items())


def read_every_full_round(sim):
    """Round number -> every job's progress and metrics, read as ``schedule`` starts.

    Progress is read first (a deferred job settles on that read), then the
    metrics, which are derived from it on the read -- what a policy may do.
    """
    seen = {}
    schedule = sim.scheduling_policy.schedule

    def reading_schedule(job_state, cluster_state):
        jobs = job_state.all_jobs()
        fields = {job.job_id: progress(job) for job in jobs}
        seen[sim.manager.round_number] = {
            job.job_id: (fields[job.job_id], metrics(job)) for job in jobs
        }
        return schedule(job_state, cluster_state)

    sim.scheduling_policy.schedule = reading_schedule
    return seen


def check_reads_match_stepping(spec):
    default = build(spec, fast_forward=True)
    assert default.execution_model._defer
    read = read_every_full_round(default)
    default.run()
    stepping = build(spec, fast_forward=False)
    assert not stepping.execution_model._defer
    oracle = read_every_full_round(stepping)
    stepping_result = stepping.run()
    assert read and set(read) <= set(oracle), spec
    for round_number, jobs in read.items():
        assert jobs == oracle[round_number], (spec, round_number)
    quiet = build(spec, fast_forward=True).run()
    assert job_state_hash(quiet.jobs) == job_state_hash(stepping_result.jobs), spec


@pytest.mark.parametrize("seed", FIXED_CORPUS_SEEDS)
def test_reads_at_every_full_round_match_stepping(seed):
    check_reads_match_stepping(_draw_spec(seed))


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", FUZZ_SWEEP_SEEDS)
def test_reads_at_every_full_round_match_stepping_fuzz_sweep(seed):
    check_reads_match_stepping(_draw_spec(seed))


# ----------------------------------------------------------------------
# Settled wherever read
# ----------------------------------------------------------------------


def contended(fast_forward=True, **kwargs):
    return Simulator(
        cluster_state=build_cluster(num_nodes=8, gpus_per_node=4),
        jobs=generate_philly_trace(num_jobs=90, jobs_per_hour=30.0, seed=21).fresh_jobs(),
        scheduling_policy=TiresiasScheduling(),
        placement_policy=ConsolidatedPlacement(),
        fast_forward=fast_forward,
        **kwargs,
    )


def stepping_progress():
    """Round number -> job id -> progress, as placement starts, on the stepping loop."""
    sim = contended(fast_forward=False)
    seen = {}
    place = sim.placement_policy.place

    def recording_place(schedule, cluster_state, job_state):
        seen[sim.manager.round_number] = {
            job.job_id: progress(job) for job in job_state.all_jobs()
        }
        return place(schedule, cluster_state, job_state)

    sim.placement_policy.place = recording_place
    sim.run()
    return seen


def unsettled(sim):
    model = sim.execution_model
    return [
        epoch.job for epoch in model._records.values()
        if epoch.round is not None and epoch.round != model._fold_round
    ]


def test_a_deferred_job_read_mid_round_or_copied_is_settled():
    """Inside ``place`` (mid-round) deferred jobs lag the fold clock; every way of
    looking at one -- a read, ``snapshot()``, a pickled copy -- sees stepping's
    value, and no copy carries the epoch."""
    oracle = stepping_progress()
    sim = contended()
    checked = {"read": 0, "snapshot": 0, "pickle": 0}
    place = sim.placement_policy.place

    def checking_place(schedule, cluster_state, job_state):
        expected = oracle[sim.manager.round_number]
        for index, job in enumerate(unsettled(sim)):
            kind = ("read", "snapshot", "pickle")[index % 3]
            if kind == "snapshot":
                copy = job.snapshot()
                assert copy._epoch is None
            elif kind == "pickle":
                copy = pickle.loads(pickle.dumps(job))
                assert copy._epoch is None and job._epoch is not None
            else:
                copy = job
            assert progress(copy) == expected[job.job_id]
            fresh = job.copy_static()
            assert fresh._epoch is None and fresh.work_done == 0.0
            checked[kind] += 1
        return place(schedule, cluster_state, job_state)

    sim.placement_policy.place = checking_place
    sim.run()
    assert all(count > 20 for count in checked.values()), checked


def test_a_simulator_pickled_at_a_pause_carries_no_epoch():
    sim = contended()
    stepping = contended(fast_forward=False).run()
    last_arrival = max(job.arrival_time for job in sim.jobs)
    for step in range(1, 4):
        sim._advance_loop(step * last_arrival / 4)
        model = sim.execution_model
        assert model._records and not unsettled(sim)
        copy = pickle.loads(pickle.dumps(sim))
        assert not copy.execution_model._records and not copy.execution_model._completions
        for job in copy.job_state.all_jobs():
            assert job._epoch is None
            original = sim.job_state.get(job.job_id)
            assert (progress(job), metrics(job)) == (progress(original), metrics(original))
        # The copy reopens its epochs and finishes as stepping does.
        result = copy.run()
        assert job_state_hash(result.jobs) == job_state_hash(stepping.jobs)
    assert job_state_hash(sim.run().jobs) == job_state_hash(stepping.jobs)


def test_a_write_to_a_deferred_job_restarts_its_epoch():
    """Charging running jobs extra overhead mid-run (a write, not a fold)
    settles each first and restarts its epoch from the written value: the
    run equals stepping given the same writes at the same rounds."""

    def run(fast_forward, script=None):
        sim = contended(fast_forward=fast_forward)
        writes, deferred = [], []
        place = sim.placement_policy.place

        def charging_place(schedule, cluster_state, job_state):
            round_number = sim.manager.round_number
            if script is None:
                chosen = job_state.running_jobs()[:2] if round_number % 7 == 3 else []
            else:
                chosen = [job_state.get(job_id) for r, job_id in script if r == round_number]
            for job in chosen:
                writes.append((round_number, job.job_id))
                if job._epoch is not None:
                    deferred.append(job.job_id)
                job.pending_overhead += 450.0
            return place(schedule, cluster_state, job_state)

        sim.placement_policy.place = charging_place
        return sim.run(), writes, deferred

    default, writes, deferred = run(True)
    stepping, replayed, _ = run(False, script=writes)
    assert replayed == writes and len(deferred) > 20
    assert job_state_hash(default.jobs) == job_state_hash(stepping.jobs)


# ----------------------------------------------------------------------
# The epoch key: a membership change reaches a running job only by eviction
# ----------------------------------------------------------------------


CHURN_SCENARIOS = (
    "failure-storm", "spot-market", "rolling-upgrade", "hetero-drift",
    "scale-cycle", "maintenance-window", "bernoulli-churn",
)


@pytest.mark.parametrize("scenario", CHURN_SCENARIOS)
@pytest.mark.parametrize("policy", [PolluxScheduling, TiresiasScheduling], ids=["pollux", "tiresias"])
def test_membership_changes_reach_running_jobs_only_by_eviction(scenario, policy):
    """Before every fold, each open epoch's facts equal a fresh computation.

    So a record keyed on the identity of the job's allocation record alone
    never serves a stale rate, fragmentation or GPU count, however the
    membership moved.
    """
    compiled = get_scenario(scenario, smoke=True).compile(seed=7)
    sim = Simulator(
        cluster_state=compiled.build_cluster(),
        jobs=compiled.trace.fresh_jobs(),
        scheduling_policy=policy(),
        placement_policy=ConsolidatedPlacement(),
        round_duration=compiled.spec.round_duration,
        cluster_manager=compiled.make_cluster_manager(),
        tracked_job_ids=compiled.trace.tracked_ids(),
    )
    model, cluster = sim.execution_model, sim.cluster_state
    moved = []
    last = [cluster.membership_version]
    update_metrics = sim.manager.update_metrics

    def checking_update_metrics(cluster_state, job_state):
        if cluster.membership_version != last[0] and model._records:
            moved.append(len(model._records))
        last[0] = cluster.membership_version
        for job_id, epoch in model._records.items():
            job = epoch.job
            assert job.status is JobStatus.RUNNING
            assert epoch.alloc is cluster.allocation(job_id)
            assert epoch.rate == model.effective_rate(job, cluster)
            held = [g for g in cluster.gpus.values() if g.job_id == job_id]
            assert epoch.num_gpus == len(held)
            assert epoch.fragmented == (len({g.node_id for g in held}) > 1)
        update_metrics(cluster_state, job_state)

    sim.manager.update_metrics = checking_update_metrics
    sim.run()
    assert moved, "no membership change met a running epoch"


# ----------------------------------------------------------------------
# Exact counts: a full round touches only the jobs that changed
# ----------------------------------------------------------------------


def trace_windows(sim, monkeypatch):
    """Per full round (and the skip after it): which jobs the model touched.

    A window opens at each ``update_metrics`` call.  ``opened``: epochs
    opened; ``settled``: jobs settled; ``advanced``: jobs ``advance_running``
    folded; ``completed``: those of them that completed.
    """
    model = sim.execution_model
    windows = []
    open_pending, settle, advance_running = (
        model._open_pending, _Epoch.settle, model.advance_running
    )

    def traced_open(cluster_state):
        if windows:
            windows[-1]["opened"].update(model._opening)
        open_pending(cluster_state)

    def traced_settle(epoch):
        if epoch.round != model._fold_round:
            windows[-1]["settled"].add(epoch.job.job_id)
        settle(epoch)

    def traced_advance(jobs, *args):
        jobs = list(jobs)
        advance_running(jobs, *args)
        window = windows[-1]
        window["advanced"].update(job.job_id for job in jobs)
        window["completed"].update(job.job_id for job in jobs if job.is_finished)

    update_metrics = sim.manager.update_metrics

    def traced_update_metrics(cluster_state, job_state):
        windows.append({key: set() for key in ("opened", "settled", "advanced", "completed")})
        update_metrics(cluster_state, job_state)

    model._open_pending = traced_open
    monkeypatch.setattr(_Epoch, "settle", traced_settle)
    model.advance_running = traced_advance
    sim.manager.update_metrics = traced_update_metrics
    return windows


def test_a_full_round_touches_only_the_jobs_that_changed(monkeypatch):
    """Contended Tiresias: folds are completions, settles are completions or reads.

    Every window's touched jobs are bounded by its completions, epoch opens
    and settles by reads (a suspension, a demotion check, a policy's read);
    the totals are pinned, next to the job-rounds the eager loop folds.
    """
    sim = Simulator(
        cluster_state=build_cluster(num_nodes=16, gpus_per_node=4),
        jobs=generate_philly_trace(num_jobs=240, jobs_per_hour=40.0, seed=36).fresh_jobs(),
        scheduling_policy=TiresiasScheduling(),
        placement_policy=ConsolidatedPlacement(),
    )
    windows = trace_windows(sim, monkeypatch)
    result = sim.run()
    totals = dict.fromkeys(("touched", "completed", "opened", "read"), 0)
    for window in windows:
        assert window["advanced"] == window["completed"]
        read = window["settled"] - window["completed"]
        touched = window["opened"] | window["settled"] | window["advanced"]
        assert len(touched) <= len(window["completed"]) + len(window["opened"]) + len(read)
        totals["touched"] += len(touched)
        totals["completed"] += len(window["completed"])
        totals["opened"] += len(window["opened"])
        totals["read"] += len(read)
    eager_job_rounds = sum(row.running_jobs for row in list(result.round_log)[:-1])
    assert (len(windows), result.rounds, eager_job_rounds) == PINNED_ROUNDS
    assert totals == PINNED_TOTALS
    stepping = Simulator(
        cluster_state=build_cluster(num_nodes=16, gpus_per_node=4),
        jobs=generate_philly_trace(num_jobs=240, jobs_per_hour=40.0, seed=36).fresh_jobs(),
        scheduling_policy=TiresiasScheduling(),
        placement_policy=ConsolidatedPlacement(),
        fast_forward=False,
    ).run()
    assert job_state_hash(result.jobs) == job_state_hash(stepping.jobs)


#: (full rounds, rounds, job-rounds the eager loop folds) of the run above.
PINNED_ROUNDS = (390, 7161, 31824)
#: Jobs touched across its full rounds, and what bounds them.
PINNED_TOTALS = {"touched": 1484, "completed": 240, "opened": 771, "read": 553}
