"""Supervised federation: checkpoint/restart recovery, degradation, taxonomy.

The contract under test is the robustness tentpole (``docs/robustness.md``):
a SIGKILLed, hung, or silent shard worker is detected, respawned with
backoff, and replayed from its last checkpoint -- and the recovered run is
**bit-identical** to a fault-free one.  Degradation (restarts exhausted)
must conserve jobs: every job either finishes on a surviving shard or is
counted lost; none vanish silently.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.exceptions import ConfigurationError, SimulationError
from repro.federation import (
    FatalWorkerError,
    FederationEngine,
    FederationWorkerError,
    LocalShardBackend,
    RetryableWorkerError,
    SupervisorConfig,
    WorkerKillPlan,
    WorkerPoolBackend,
)
from repro.federation.router import make_router
from repro.metrics.parity import schedule_diff
from repro.telemetry.events import EVENT_SUPERVISOR
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.runspec import RunSpec
from repro.telemetry.sinks import RingBufferSink
from repro.workloads.philly import generate_philly_trace

ROUND = 300.0


def small_trace(num_jobs=40, seed=7, jobs_per_hour=6.0):
    return generate_philly_trace(
        num_jobs=num_jobs, jobs_per_hour=jobs_per_hour, seed=seed
    )


def bench_spec(num_shards=2, nodes_per_shard=4):
    return RunSpec(
        mode="federation",
        num_nodes=num_shards * nodes_per_shard,
        shards=num_shards,
        round_duration=ROUND,
    )


def run_on(backend, trace):
    """The one engine; serial and supervised runs differ in the backend only."""
    return FederationEngine(
        backend,
        make_router("queue-delay"),
        trace.fresh_jobs(),
        tracked_job_ids=trace.tracked_ids(),
    ).run()


def run_serial(trace, num_shards=2):
    spec = bench_spec(num_shards)
    return run_on(LocalShardBackend([spec.shard(i) for i in range(num_shards)]), trace)


def run_supervised(trace, num_shards=2, workers=2, **kwargs):
    return run_on(WorkerPoolBackend(bench_spec(num_shards), workers, **kwargs), trace)


def supervisor(**overrides):
    config = dict(checkpoint_interval=3, backoff_base_s=0.01, backoff_max_s=0.05)
    config.update(overrides)
    return SupervisorConfig(**config)


# ----------------------------------------------------------------------
# Kill-one-worker recovery parity (the tentpole gate)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mp_context", ["fork", "spawn"])
@pytest.mark.parametrize("when", ["before", "after"])
def test_sigkill_mid_advance_recovers_bit_identical(mp_context, when):
    trace = small_trace()
    serial = run_serial(trace)
    recovered = run_supervised(
        trace,
        mp_context=mp_context,
        supervisor=supervisor(),
        kill_plan=WorkerKillPlan(kills=((2, 0),), when=when),
    )
    assert schedule_diff(serial, recovered).identical
    stats = recovered.fault_stats
    assert stats.worker_restarts == 1
    assert stats.checkpoints >= 1


def test_kill_before_first_checkpoint_replays_from_genesis():
    trace = small_trace()
    serial = run_serial(trace)
    recovered = run_supervised(
        trace,
        supervisor=supervisor(checkpoint_interval=1000),
        kill_plan=WorkerKillPlan(kills=((4, 1),), when="before"),
    )
    assert schedule_diff(serial, recovered).identical
    stats = recovered.fault_stats
    assert stats.worker_restarts == 1
    assert stats.checkpoints == 0
    assert stats.replayed_commands >= 4


def test_two_kills_same_worker_recover():
    trace = small_trace(num_jobs=30)
    serial = run_serial(trace)
    recovered = run_supervised(
        trace,
        supervisor=supervisor(),
        kill_plan=WorkerKillPlan(kills=((1, 0), (5, 0)), when="before"),
    )
    assert schedule_diff(serial, recovered).identical
    assert recovered.fault_stats.worker_restarts == 2


def test_supervisor_actions_stream_to_the_parent_recorder():
    """A recorded supervised run streams each checkpoint and restart with the
    live counters; recording changes nothing about the schedule."""
    trace = small_trace(num_jobs=30)
    sink = RingBufferSink()
    recovered = run_supervised(
        trace,
        supervisor=supervisor(),
        kill_plan=WorkerKillPlan(kills=((2, 0),), when="before"),
        recorder=TraceRecorder(sink, source="federation"),
    )
    assert schedule_diff(run_serial(trace), recovered).identical
    events = [event for event in sink.events() if event.kind == EVENT_SUPERVISOR]
    ops = [event.payload["op"] for event in events]
    assert ops.count("restart") == 1
    assert ops.count("checkpoint") == recovered.fault_stats.checkpoints >= 1
    restart = events[ops.index("restart")].payload
    assert (restart["worker"], restart["attempt"], restart["worker_restarts"]) == (0, 1, 1)


# ----------------------------------------------------------------------
# Hung and silent workers (collect timeout, heartbeat timeout)
# ----------------------------------------------------------------------


def _first_boundary(trace):
    return trace.fresh_jobs()[0].arrival_time + ROUND


def test_hung_worker_unsupervised_raises_with_context():
    with WorkerPoolBackend(
        bench_spec(2), workers=2, collect_timeout_s=0.5
    ) as backend:
        backend._conns[0].send(("hang", 30.0))
        with pytest.raises(RetryableWorkerError, match="collect timeout") as excinfo:
            backend.advance(ROUND)
        message = str(excinfo.value)
        assert "shards [0]" in message
        assert "pid" in message
        assert "phase" in message
        # The bound is reported as configured, not rounded to "0s".
        assert "did not reply within 0.5s" in message


def test_hung_worker_supervised_recovers():
    with WorkerPoolBackend(
        bench_spec(2),
        workers=2,
        collect_timeout_s=0.5,
        supervisor=supervisor(),
    ) as backend:
        backend._conns[0].send(("hang", 30.0))
        summaries = backend.advance(ROUND)
        assert len(summaries) == 2
        assert backend.fault_stats().worker_restarts == 1


def test_silent_worker_detected_by_heartbeat_timeout():
    with WorkerPoolBackend(
        bench_spec(2),
        workers=2,
        supervisor=supervisor(
            heartbeat_interval_s=0.05, heartbeat_timeout_s=0.5
        ),
    ) as backend:
        os.kill(backend._procs[0].pid, signal.SIGSTOP)
        summaries = backend.advance(ROUND)
        assert len(summaries) == 2
        assert backend.fault_stats().worker_restarts == 1


def test_unsupervised_kill_keeps_historical_error_shape():
    with WorkerPoolBackend(bench_spec(2), workers=2) as backend:
        os.kill(backend._procs[1].pid, signal.SIGKILL)
        with pytest.raises(SimulationError, match="died|closed its pipe"):
            backend.advance(ROUND)


def test_send_to_a_dead_worker_says_died():
    # The send path and the receive path describe one dead worker alike.
    with WorkerPoolBackend(bench_spec(2), workers=2) as backend:
        proc = backend._procs[1]
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(5.0)
        with pytest.raises(
            RetryableWorkerError, match="died with exitcode -9 before receiving 'advance'"
        ):
            backend._send(1, ("advance", ROUND))


# ----------------------------------------------------------------------
# In-flight submissions (the fire-and-forget fix)
# ----------------------------------------------------------------------


def test_submit_to_freshly_killed_worker_is_not_lost():
    trace = small_trace(num_jobs=4)
    jobs = trace.fresh_jobs()
    first = jobs[0]
    with WorkerPoolBackend(
        bench_spec(2),
        workers=2,
        supervisor=supervisor(checkpoint_interval=1000),
    ) as backend:
        backend.advance(first.arrival_time)
        backend.submit(0, first)
        os.kill(backend._procs[0].pid, signal.SIGKILL)
        # Recovery replays the submit from the command log; the job must run
        # to completion on the respawned shard as if nothing happened.
        backend.advance(first.arrival_time + first.duration + 5 * ROUND)
        results = backend.finish()
        assert first.job_id in {j.job_id for j in results[0].jobs}
        assert backend.fault_stats().worker_restarts == 1


# ----------------------------------------------------------------------
# Degradation: restarts exhausted, jobs conserved
# ----------------------------------------------------------------------


def test_degrade_marks_shard_dead_and_conserves_jobs():
    trace = small_trace()
    num_jobs = len(trace.fresh_jobs())
    degraded = run_supervised(
        trace,
        supervisor=supervisor(max_restarts=0, on_unrecoverable="degrade"),
        kill_plan=WorkerKillPlan(kills=((4, 1),), when="before"),
    )
    stats = degraded.fault_stats
    assert stats.dead_shards == 1
    finished = sum(len(shard.jobs) for shard in degraded.shard_results)
    assert finished + stats.lost_jobs == num_jobs
    # Routing accounting stays conserved too: every job is attributed to
    # exactly one shard (re-routes move the attribution to the survivor).
    assert sum(degraded.jobs_per_shard()) == num_jobs


def test_exhausted_restarts_raise_fatal_by_default():
    trace = small_trace(num_jobs=20)
    with pytest.raises(FatalWorkerError, match="unrecoverable"):
        run_supervised(
            trace,
            supervisor=supervisor(max_restarts=0),
            kill_plan=WorkerKillPlan(kills=((2, 0),), when="before"),
        )


# ----------------------------------------------------------------------
# Taxonomy and configuration validation
# ----------------------------------------------------------------------


def test_error_taxonomy_subclasses_simulation_error():
    assert issubclass(FederationWorkerError, SimulationError)
    assert issubclass(RetryableWorkerError, FederationWorkerError)
    assert issubclass(FatalWorkerError, FederationWorkerError)


def test_supervisor_config_validation():
    with pytest.raises(ConfigurationError):
        SupervisorConfig(on_unrecoverable="explode")
    with pytest.raises(ConfigurationError):
        SupervisorConfig(max_restarts=-1)
    with pytest.raises(ConfigurationError):
        WorkerKillPlan(kills=((0, 0),), when="sometime")
    for bad in (
        dict(checkpoint_interval=-1),
        dict(heartbeat_interval_s=0.0),  # a busy-looping heartbeat thread
        dict(heartbeat_timeout_s=0.0),
        dict(backoff_base_s=-0.1),  # time.sleep would raise mid-recovery
        dict(backoff_max_s=-1.0),
    ):
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            SupervisorConfig(**bad)
    SupervisorConfig(checkpoint_interval=0, heartbeat_timeout_s=None, backoff_base_s=0.0)


@pytest.mark.parametrize("worker_index", [-1, 2, 5])
def test_kill_plan_must_name_a_pool_worker(worker_index):
    # 2 shards cap the pool at min(workers, num_shards) = 2 workers: an entry
    # for any other index would never fire, and a chaos leg would pass without a kill.
    with pytest.raises(ConfigurationError, match=f"worker {worker_index}"):
        WorkerPoolBackend(
            bench_spec(2),
            workers=4,
            supervisor=supervisor(),
            kill_plan=WorkerKillPlan(kills=((1, 0), (2, worker_index))),
        )


def test_collect_timeout_validation():
    with pytest.raises(ConfigurationError):
        WorkerPoolBackend(bench_spec(2), workers=2, collect_timeout_s=0.0)
