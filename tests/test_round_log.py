"""The run-length round log.

``RoundLog`` stores the per-round rows of a run as runs: a row joins the
previous run only when it follows it directly, has equal payload fields and
sits on the computed clock.  These tests pin the coalescing rules, the
sequence facade (length, iteration, indexing, equality, pickling), that the
default engine and the stepping loop build the same *runs*, and that a
result built at a pause keeps its log.  (What a skip does to job accounting
is pinned in ``test_event_core.py``.)
"""

import itertools
import pickle

import pytest

from repro.cluster.builder import build_cluster
from repro.metrics.summary import capacity_weighted_utilization
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling.fifo import FifoScheduling
from repro.simulator.engine import RoundLog, RoundRecord, Simulator
from repro.telemetry.runspec import RunSpec
from repro.workloads.philly import generate_philly_trace

RD = 300.0


def row(number, running=2, time=None, **fields):
    """A row on the computed clock unless ``time`` says otherwise."""
    values = dict(
        queued_jobs=1,
        utilization=0.5,
        scheduler_name="fifo",
        admission_name="accept-all",
        busy_capacity=8.0,
        healthy_capacity=16.0,
    )
    values.update(fields)
    return RoundRecord(
        number, number * RD if time is None else time, running, **values
    )


def log_of(rows):
    log = RoundLog(RD)
    for record in rows:
        log.append(record)
    return log


# ----------------------------------------------------------------------
# Coalescing rules
# ----------------------------------------------------------------------


def test_equal_consecutive_on_clock_rows_make_one_run():
    log = log_of(row(n) for n in range(5))
    assert [(head.round_number, count) for head, count in log.runs()] == [(0, 5)]


@pytest.mark.parametrize(
    "breaker",
    [
        row(3, time=3 * RD + 1.0),  # off the computed clock
        row(4),  # a gap: round 3 is missing
        row(3, running=3),
        row(3, queued_jobs=0),
        row(3, utilization=0.25),
        row(3, scheduler_name="srtf"),
        row(3, admission_name="accept-1.5x"),
        row(3, busy_capacity=4.0),
        row(3, healthy_capacity=12.0),
    ],
    ids=[
        "off-clock", "gap", "running", "queued", "utilization", "scheduler",
        "admission", "busy", "healthy",
    ],
)
def test_each_rule_starts_a_new_run(breaker):
    log = log_of([row(0), row(1), row(2), breaker])
    assert [count for _, count in log.runs()] == [3, 1]
    assert log[3] == breaker
    # The new run is then extended by the rows that follow *it*.
    follower = row(breaker.round_number + 1, running=breaker.running_jobs,
                   **{f: getattr(breaker, f) for f in (
                       "queued_jobs", "utilization", "scheduler_name",
                       "admission_name", "busy_capacity", "healthy_capacity")})
    log.append(follower)
    assert [count for _, count in log.runs()] == [3, 2]


def test_batched_and_row_by_row_appends_make_the_same_runs():
    rows = [row(0, running=1)] + [row(n) for n in range(1, 8)] + [row(8, running=0)]
    batched = RoundLog(RD)
    batched.append(rows[0])
    batched.append(rows[1])
    batched.append_run(rows[2], 6)  # rounds 2..7
    batched.append(rows[8])
    assert list(batched.runs()) == list(log_of(rows).runs())
    assert list(batched) == rows


# ----------------------------------------------------------------------
# The sequence facade
# ----------------------------------------------------------------------


def sample_log():
    log = RoundLog(RD)
    log.append(row(0, running=0))
    log.append_run(row(1), 4)
    log.append(row(5, running=1))
    log.append_run(row(6, running=1), 3)  # joins the run of round 5
    return log


def test_len_iteration_and_indexing():
    log = sample_log()
    rows = [row(0, running=0)] + [row(n) for n in range(1, 5)] + [
        row(n, running=1) for n in range(5, 9)
    ]
    assert len(log) == 9 and len(list(log.runs())) == 3
    assert list(log) == rows
    for index in range(-len(rows), len(rows)):
        assert log[index] == rows[index]
    for bad in (9, -10):
        with pytest.raises(IndexError):
            log[bad]
    for piece in (slice(None), slice(2, 7), slice(-3, None), slice(None, None, 2),
                  slice(7, 1, -2), slice(20, 30)):
        assert log[piece] == rows[piece]


def test_equality_against_rows_and_logs():
    log = sample_log()
    rows = list(log)
    assert log == rows and rows == log and log == tuple(rows)
    assert log != rows[:-1] and log != rows + [row(9, running=1)]
    assert log != [*rows[:-1], row(8, running=2)]
    assert log == sample_log() and log == log_of(rows)
    assert log != log_of(rows[:-1])
    # A different round duration compares row by row.
    assert RoundLog(60.0) == RoundLog(RD) == []
    assert (log == 42) is False


def test_copy_is_independent():
    log = sample_log()
    snapshot = log.copy()
    log.append_run(row(9, running=1), 5)
    assert len(snapshot) == 9 and len(log) == 14
    assert snapshot == log[:9]


def test_pickle_is_o_runs_and_round_trips():
    short, long = RoundLog(RD), RoundLog(RD)
    for index in range(10):
        short.append(row(index, running=index))
        long.append_run(row(index * 1_000_000, running=index), 1_000_000)
    restored = pickle.loads(pickle.dumps(long))
    assert restored == long and len(restored) == 10_000_000
    assert list(restored.runs()) == list(long.runs())
    assert len(pickle.dumps(long)) < len(pickle.dumps(short)) + 64
    # The restored log keeps extending its last run.
    restored.append(row(10_000_000, running=9))
    assert len(list(restored.runs())) == 10


@pytest.mark.parametrize("duplicate", ["copy", "pickle"])
def test_a_duplicate_joins_rows_as_the_original_does(duplicate):
    """The last run's payload, which the join test reads, survives ``copy()``
    and pickling: equal rows join the last run of a duplicate exactly as they
    join the original's, and a differing row starts a run in both."""
    log = sample_log()
    twin = log.copy() if duplicate == "copy" else pickle.loads(pickle.dumps(log))
    last = log[-1]
    follow = [
        (row(last.round_number + 1, running=last.running_jobs), 1),
        (row(last.round_number + 2, running=last.running_jobs), 4),
        (row(last.round_number + 6, running=last.running_jobs + 1), 2),
        (row(last.round_number + 8, running=last.running_jobs + 1), 1),
    ]
    for record, count in follow:
        log.append_run(record, count)
        twin.append_run(record, count)
    assert list(twin.runs()) == list(log.runs())
    assert twin == log and len(twin) == len(sample_log()) + 8
    assert len(list(log.runs())) == len(list(sample_log().runs())) + 1


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["fifo", "tiresias", "pollux"])
def test_default_and_stepping_build_the_same_runs(policy):
    spec = RunSpec(policy=policy, num_jobs=30, jobs_per_hour=1.5, seed=3)
    default = spec.build().run()
    stepping = spec.build(fast_forward=False).run()
    assert list(default.round_log.runs()) == list(stepping.round_log.runs())
    assert default.round_log == stepping.round_log
    assert len(default.round_log) == default.rounds
    assert len(list(default.round_log.runs())) < default.rounds


def low_load_fifo(fast_forward=True):
    trace = generate_philly_trace(num_jobs=40, jobs_per_hour=0.5, seed=11)
    return Simulator(
        cluster_state=build_cluster(num_nodes=16, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=FifoScheduling(),
        placement_policy=ConsolidatedPlacement(),
        round_duration=RD,
        fast_forward=fast_forward,
    )


def test_paused_result_keeps_its_log():
    """A result built at a pause does not grow when the loop resumes."""
    uninterrupted = low_load_fifo().run()
    sim = low_load_fifo()
    assert sim._advance_loop(uninterrupted.end_time / 3) is False
    paused = sim.build_result()
    rows = len(paused.round_log)
    assert rows == paused.rounds > 0
    assert sim._advance_loop(None) is True
    assert len(paused.round_log) == rows == paused.rounds
    assert paused.round_log == uninterrupted.round_log[: paused.rounds]
    assert sim.build_result().round_log == uninterrupted.round_log


def test_federation_utilisation_pools_rows_lazily():
    """The pooled value equals the one over a materialised list of every row."""
    result = RunSpec(mode="federation", shards=3, num_jobs=30, num_nodes=12).build().run()
    logs = [shard.round_log for shard in result.shard_results]
    assert all(isinstance(log, RoundLog) for log in logs)
    pooled = [record for log in logs for record in log]
    expected = capacity_weighted_utilization(pooled)
    assert result.summary().capacity_weighted_utilization == expected
    assert capacity_weighted_utilization(itertools.chain(*logs)) == expected
