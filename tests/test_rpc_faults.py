"""Control-plane chaos: fault injection, exactly-once delivery, lease safety.

Covers the RPC half of the robustness layer (``docs/robustness.md``): the
seeded :class:`FaultPlan`, the retry/backoff/idempotency machinery that makes
every logical call execute its handler exactly once under drops, lost
replies and duplicates, and the property that matters downstream -- a
deployment run under injected faults produces the *same schedule* as a
fault-free run, with zero leaked leases.
"""

from __future__ import annotations

import pytest

from repro.cluster.builder import build_cluster
from repro.core.exceptions import ConfigurationError, RpcFaultError
from repro.core.job import JobStatus
from repro.policies.scheduling import FifoScheduling
from repro.runtime.central_scheduler import CentralScheduler
from repro.runtime.client_library import BloxDataLoader
from repro.runtime.lease import OptimisticLeaseManager, build_lease_setup
from repro.runtime.metrics import WorkerMetricsAggregator
from repro.runtime.rpc import (
    FaultPlan,
    FaultSpec,
    RPC_BASE_MS,
    RPC_SERVER_MS,
    InMemoryRpcChannel,
    RetryPolicy,
)
from repro.runtime.worker_manager import WorkerManager
from repro.simulator.overheads import OverheadModel
from repro.workloads.philly import generate_philly_trace

MIXED_SPEC = FaultSpec(
    drop_rate=0.1, lose_reply_rate=0.1, duplicate_rate=0.1, delay_rate=0.1
)


class ScriptedPlan(FaultPlan):
    """A fault plan that injects an explicit fault sequence, then succeeds."""

    def __init__(self, faults):
        super().__init__(FaultSpec())
        self._faults = list(faults)

    def draw(self, endpoint, method):
        fault = self._faults.pop(0) if self._faults else "ok"
        if fault == "drop":
            self.drops += 1
        elif fault == "lose_reply":
            self.lost_replies += 1
        elif fault == "duplicate":
            self.duplicates += 1
        elif fault == "delay":
            self.delays += 1
        return fault


def counting_channel(plan, retry=RetryPolicy()):
    channel = InMemoryRpcChannel(plan, retry)
    calls = []
    channel.register("server", "echo", lambda payload: calls.append(payload) or payload)
    return channel, calls


# ----------------------------------------------------------------------
# FaultPlan determinism and validation
# ----------------------------------------------------------------------


def test_fault_plan_same_seed_same_draws():
    first = FaultPlan(MIXED_SPEC, seed=3)
    second = FaultPlan(MIXED_SPEC, seed=3)
    draws = [(first.draw("e", "m"), second.draw("e", "m")) for _ in range(500)]
    assert all(a == b for a, b in draws)
    assert first.faults_injected == second.faults_injected > 0


def test_fault_plan_methods_filter():
    plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=0, methods=("launch",))
    assert plan.draw("e", "renew_lease") == "ok"
    assert plan.draw("e", "launch") == "drop"


def test_fault_spec_validation():
    with pytest.raises(ConfigurationError):
        FaultSpec(drop_rate=0.7, lose_reply_rate=0.7)
    with pytest.raises(ConfigurationError):
        FaultSpec(drop_rate=-0.1)
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)


# ----------------------------------------------------------------------
# Exactly-once semantics per fault type
# ----------------------------------------------------------------------


def test_drop_is_retried_and_handler_runs_once():
    channel, calls = counting_channel(ScriptedPlan(["drop"]))
    assert channel.call("server", "echo", "x") == "x"
    assert calls == ["x"]
    assert channel.retries == 1


def test_lost_reply_retry_is_deduplicated():
    channel, calls = counting_channel(ScriptedPlan(["lose_reply"]))
    assert channel.call("server", "echo", "x") == "x"
    # The handler ran on the first (reply-lost) delivery; the retry must NOT
    # re-execute it -- it surfaces the cached result instead.
    assert calls == ["x"]
    assert channel.retries == 1
    assert channel.duplicates_suppressed == 1


def test_duplicate_delivery_is_suppressed():
    channel, calls = counting_channel(ScriptedPlan(["duplicate"]))
    assert channel.call("server", "echo", "x") == "x"
    assert calls == ["x"]
    assert channel.duplicates_suppressed == 1
    assert channel.retries == 0


def test_delay_bills_the_caller():
    channel, _ = counting_channel(ScriptedPlan(["delay"]))
    channel.call("server", "echo", "x", caller="client")
    assert channel.busy_ms("client") == pytest.approx(
        RPC_BASE_MS + channel.fault_plan.spec.delay_ms
    )


def test_exhausted_retries_raise():
    channel, calls = counting_channel(
        ScriptedPlan(["drop", "drop", "drop"]), retry=RetryPolicy(max_attempts=3)
    )
    with pytest.raises(RpcFaultError, match="after 3 attempt"):
        channel.call("server", "echo", "x")
    assert calls == []
    assert channel.exhausted == 1


def test_no_retry_policy_means_single_attempt():
    channel, _ = counting_channel(ScriptedPlan(["drop"]), retry=None)
    with pytest.raises(RpcFaultError, match="after 1 attempt"):
        channel.call("server", "echo", "x")


def test_every_call_executes_exactly_once_under_mixed_faults():
    channel = InMemoryRpcChannel(
        FaultPlan(MIXED_SPEC, seed=5), RetryPolicy(max_attempts=16)
    )
    executions = {}
    channel.register(
        "server",
        "bump",
        lambda payload: executions.__setitem__(
            payload, executions.get(payload, 0) + 1
        ),
    )
    for i in range(300):
        channel.call("server", "bump", i)
    assert executions == {i: 1 for i in range(300)}
    assert channel.retries > 0
    assert channel.duplicates_suppressed > 0
    assert channel.exhausted == 0


def test_explicit_token_shares_one_execution():
    channel, calls = counting_channel(ScriptedPlan([]))
    first = channel.call("server", "echo", "a", idempotency_token="op:1")
    second = channel.call("server", "echo", "b", idempotency_token="op:1")
    assert first == second == "a"
    assert calls == ["a"]
    assert channel.duplicates_suppressed == 1


def test_fault_free_channel_unchanged():
    channel = InMemoryRpcChannel()
    channel.register("server", "echo", lambda payload: payload)
    assert channel.call("server", "echo", "x", caller="client") == "x"
    assert channel.busy_ms("client") == RPC_BASE_MS
    assert channel.busy_ms("server") == RPC_SERVER_MS
    assert channel.fault_stats().faults_injected == 0


# ----------------------------------------------------------------------
# Lease protocol under faults
# ----------------------------------------------------------------------


def test_two_phase_revoke_exactly_once_under_faults():
    channel = InMemoryRpcChannel(
        ScriptedPlan(["lose_reply", "duplicate", "drop"]),
        RetryPolicy(max_attempts=8),
    )
    workers = [WorkerManager(node_id=i, channel=channel) for i in range(3)]
    manager = OptimisticLeaseManager(workers, channel)
    manager.grant(7, [0, 1, 2])
    assert manager.renewal_round([7]) >= 0.0
    # Every worker agreed on the revoke despite the faults; no lease state
    # survives completion.
    assert all(w.leases.get(7) is False for w in workers)
    exit_iterations = {w.exit_iterations.get(7) for w in workers}
    assert len(exit_iterations) == 1
    manager.complete(7)
    assert manager.leaked_leases() == 0


def test_every_revocation_of_a_gang_reaches_its_peers():
    """A gang revoked, relaunched on the same nodes and revoked again.

    Both revocations agree on the same exit iteration with the same peer, so
    a peer token built from those alone made the second fan-out a duplicate
    of the first, and the peer kept running on a revoked lease.  Each
    revocation's fan-out is its own operation; the armed (empty) plan keeps
    the dedup cache in play.
    """
    channel = InMemoryRpcChannel(ScriptedPlan([]), RetryPolicy())
    workers = [WorkerManager(node_id=i, channel=channel) for i in range(2)]
    manager = OptimisticLeaseManager(workers, channel)
    for _ in range(2):
        manager.grant(7, [0, 1])
        assert [w.leases[7] for w in workers] == [True, True]
        manager.renewal_round([7])
        assert [w.leases[7] for w in workers] == [False, False]
    assert channel.duplicates_suppressed == 0
    manager.complete(7)
    assert manager.leaked_leases() == 0


def test_leaked_leases_counts_residual_state():
    manager, workers, _ = build_lease_setup(2, gpus_per_node=2)
    assert manager.leaked_leases() > 0  # granted jobs hold leases
    for job_id in list(manager.assignments):
        manager.complete(job_id)
    assert manager.leaked_leases() == 0


def test_worker_revoke_exit_iteration_is_monotonic():
    worker = WorkerManager(node_id=0)
    worker.leases[3] = True
    worker._handle_revoke({"job_id": 3, "exit_iteration": 9})
    assert worker.exit_iterations[3] == 9
    # A stale duplicate must never lower the agreed boundary.
    worker._handle_revoke({"job_id": 3, "exit_iteration": 4})
    assert worker.exit_iterations[3] == 9


def test_loader_exit_propagation_is_monotonic():
    worker = WorkerManager(node_id=0)
    loaders = [
        BloxDataLoader(job_id=1, worker=worker, total_iterations=100)
        for _ in range(2)
    ]
    loaders[0].attach_peers(loaders)
    loaders[0]._propagate_exit(8)
    loaders[0]._propagate_exit(5)
    assert loaders[0].exit_iteration == 8
    assert loaders[1].exit_iteration == 8
    assert worker.exit_iterations[1] == 8


# ----------------------------------------------------------------------
# Property: faulty runs schedule exactly like fault-free runs (seeds 0-4)
# ----------------------------------------------------------------------


def _deployment_fingerprint(fault_seed=None, methods=None, num_jobs=30):
    jobs = generate_philly_trace(num_jobs=num_jobs, jobs_per_hour=20.0, seed=13).jobs
    scheduler = CentralScheduler(
        cluster_state=build_cluster(num_nodes=4),
        jobs=jobs,
        scheduling_policy=FifoScheduling(),
        round_duration=300.0,
        overhead_model=OverheadModel(),
        fault_plan=None
        if fault_seed is None
        else FaultPlan(
            FaultSpec(
                drop_rate=0.05,
                lose_reply_rate=0.05,
                duplicate_rate=0.05,
                delay_rate=0.05,
            ),
            seed=fault_seed,
            methods=methods,
        ),
        retry_policy=None if fault_seed is None else RetryPolicy(max_attempts=8),
    )
    result = scheduler.run()
    fingerprint = (
        tuple(sorted((j.job_id, j.completion_time) for j in result.jobs)),
        result.rounds,
        tuple(result.round_log),
    )
    return fingerprint, scheduler


@pytest.mark.parametrize("fault_seed", [0, 1, 2, 3, 4])
def test_schedule_parity_under_injected_faults(fault_seed):
    reference, _ = _deployment_fingerprint()
    faulty, scheduler = _deployment_fingerprint(fault_seed)
    assert faulty == reference
    assert scheduler.leaked_leases() == 0
    stats = scheduler.fault_stats()
    assert stats.faults_injected > 0
    assert stats.any_recovery()
    assert stats.exhausted == 0


# ----------------------------------------------------------------------
# The metric delta under faults: a pull clears what it ships, so the reply
# must never be lost for good and never be shared with its receiver
# ----------------------------------------------------------------------


def test_lost_pull_reply_surfaces_the_cached_delta_not_an_empty_second_one():
    channel = InMemoryRpcChannel(ScriptedPlan(["lose_reply"]), RetryPolicy())
    worker = WorkerManager(node_id=0, channel=channel)
    worker.push_metrics(7, {"work_done": 10.0})
    # The first delivery ran the handler (marks cleared) and lost the reply;
    # re-running it on the retry would answer {}.
    assert channel.call(worker.endpoint_name, "pull_metrics") == {7: {"work_done": 10.0}}
    assert channel.retries == 1 and channel.duplicates_suppressed == 1
    assert channel.call(worker.endpoint_name, "pull_metrics") == {}


def test_dropped_and_duplicated_pulls_ship_each_delta_once():
    channel = InMemoryRpcChannel(
        ScriptedPlan(["drop", "duplicate", "delay"]), RetryPolicy()
    )
    worker = WorkerManager(node_id=0, channel=channel)
    worker.push_metrics(7, {"work_done": 10.0})
    assert channel.call(worker.endpoint_name, "pull_metrics") == {7: {"work_done": 10.0}}
    worker.push_metrics(7, {"work_done": 11.0})
    assert channel.call(worker.endpoint_name, "pull_metrics") == {7: {"work_done": 11.0}}
    assert channel.call(worker.endpoint_name, "pull_metrics") == {}


def test_aggregate_shares_no_dict_with_worker_store_or_dedup_cache():
    jobs = generate_philly_trace(num_jobs=2, jobs_per_hour=20.0, seed=13).jobs
    channel = InMemoryRpcChannel(FaultPlan(FaultSpec()), RetryPolicy())
    workers = [WorkerManager(node_id=i, channel=channel) for i in range(2)]
    manager = OptimisticLeaseManager(workers, channel)
    aggregator = WorkerMetricsAggregator(channel, manager)
    for job, worker in zip(jobs, workers):
        manager.grant(job.job_id, [worker.node_id])
        job.work_done = 5.0
        aggregator.on_status_change(job, JobStatus.RUNNABLE, JobStatus.RUNNING)
        aggregator.on_status_change(job, JobStatus.RUNNING, JobStatus.PREEMPTED)
    cached = [r for r in channel._dedup.values() if isinstance(r, dict)]
    assert len(cached) == 2  # an armed plan keeps every pull reply for dedup
    for job, worker, reply in zip(jobs, workers, cached):
        aggregator.latest[job.job_id]["work_done"] = -1.0
        assert worker.metrics[job.job_id]["work_done"] == 5.0
        assert reply == {job.job_id: {"work_done": 5.0}}
        reply[job.job_id]["work_done"] = -2.0
        worker.metrics[job.job_id]["work_done"] = -3.0
        assert aggregator.latest_for(job.job_id)["work_done"] == 5.0


PULLED_JOBS = 120


@pytest.mark.parametrize("fault_seed", [0, 1, 2, 3, 4])
def test_pulled_metrics_under_faulty_pulls_equal_the_fault_free_run(fault_seed):
    # A job is pulled once per stint of running, so the run needs enough
    # jobs for the pulls to draw every fault kind.
    reference, clean = _deployment_fingerprint(num_jobs=PULLED_JOBS)
    faulty, scheduler = _deployment_fingerprint(
        fault_seed, methods=("pull_metrics",), num_jobs=PULLED_JOBS
    )
    assert faulty == reference
    assert scheduler.worker_metrics.latest == clean.worker_metrics.latest
    assert len(scheduler.worker_metrics.latest) == PULLED_JOBS
    plan = scheduler.channel.fault_plan
    assert min(plan.drops, plan.lost_replies, plan.duplicates, plan.delays) > 0
    assert scheduler.fault_stats().exhausted == 0
