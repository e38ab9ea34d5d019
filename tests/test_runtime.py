"""Tests for the deployment-path runtime layer (leases, RPC, CentralScheduler).

Covers the lease lifecycle (grant / renew / revoke / complete), the two-phase
optimistic exit protocol with worker-to-worker propagation, the caller-aware
RPC cost accounting behind Fig. 19, membership dynamics under scenario churn,
and schedule parity between the deployment path and the plain simulator.
"""

import pytest

from repro.cluster.builder import ClusterSpec, build_cluster
from repro.core.abstractions import ClusterManager
from repro.core.exceptions import ConfigurationError, LeaseError
from repro.core.job import Job, JobStatus
from repro.experiments.figures import FIGURES, measure_lease_round
from repro.experiments.harness import run_figure
from repro.metrics.collector import UtilizationCollector
from repro.metrics.parity import schedule_diff
from repro.policies.scheduling.fifo import FifoScheduling
from repro.policies.scheduling.tiresias import TiresiasScheduling
from repro.runtime import (
    BloxDataLoader,
    CentralLeaseManager,
    CentralScheduler,
    InMemoryRpcChannel,
    OptimisticLeaseManager,
    WorkerManager,
    WorkerMetricsAggregator,
    WorkerMetricsCollector,
    build_lease_setup,
)
from repro.runtime.central_scheduler import RpcLauncher, RpcPreemption
from repro.runtime.lease import SCHEDULER_ENDPOINT
from repro.runtime.metrics import REPORTED_KEYS
from repro.runtime.rpc import RPC_BASE_MS, RPC_SERVER_MS
from repro.scenarios.registry import scenario_names
from repro.scenarios.spec import FailNodes, ScaleIn, ScaleOut, ScenarioSpec, WorkloadSpec
from repro.simulator.engine import Simulator
from repro.simulator.overheads import ClusterOverheadModel, OverheadModel
from repro.telemetry.runspec import RunSpec
from repro.workloads.philly import generate_philly_trace


# ----------------------------------------------------------------------
# RPC channel accounting
# ----------------------------------------------------------------------


class TestRpcAccounting:
    def test_caller_and_callee_are_billed_separately(self):
        assert RPC_BASE_MS != RPC_SERVER_MS  # else the two bills look alike
        channel = InMemoryRpcChannel()
        channel.register("b", "ping", lambda p: "pong")
        channel.call("b", "ping", {}, caller="a")
        assert channel.busy_ms("a") == RPC_BASE_MS
        assert channel.busy_ms("b") == RPC_SERVER_MS
        assert channel.critical_path_ms() == max(RPC_BASE_MS, RPC_SERVER_MS)

    def test_nested_calls_bill_the_handling_endpoint(self):
        channel = InMemoryRpcChannel()
        channel.register("c", "leaf", lambda p: None)
        channel.register("b", "fan", lambda p: channel.call("c", "leaf", {}))
        channel.call("b", "fan", {}, caller="a")
        # a paid one client cost; b paid its server cost, then the client
        # cost of the nested call it made; c paid one server cost.  Nothing
        # from the fan-out lands on a.
        assert channel.busy_ms("a") == RPC_BASE_MS
        assert channel.busy_ms("b") == RPC_SERVER_MS + RPC_BASE_MS
        assert channel.busy_ms("c") == RPC_SERVER_MS

    def test_unregister_endpoint_drops_all_methods(self):
        channel = InMemoryRpcChannel()
        worker = WorkerManager(node_id=3, channel=channel)
        assert channel.has_endpoint(worker.endpoint_name)
        channel.unregister_endpoint(worker.endpoint_name)
        assert not channel.has_endpoint(worker.endpoint_name)

    def test_unregistering_one_endpoint_leaves_the_others_routable(self):
        channel = InMemoryRpcChannel()
        gone, kept = (WorkerManager(node_id=n, channel=channel) for n in (3, 4))
        channel.unregister_endpoint(gone.endpoint_name)
        channel.unregister_endpoint(gone.endpoint_name)  # already gone: no-op
        assert channel.call(kept.endpoint_name, "pull_metrics") == {}
        with pytest.raises(
            ConfigurationError,
            match="no handler registered for 'pull_metrics' on 'worker-3'",
        ):
            channel.call(gone.endpoint_name, "pull_metrics")
        with pytest.raises(
            ConfigurationError, match="no handler registered for 'nope' on 'worker-4'"
        ):
            channel.call(kept.endpoint_name, "nope")
        assert channel.total_calls == 1  # an unroutable message is never counted


# ----------------------------------------------------------------------
# Lease lifecycle: completion releases everything
# ----------------------------------------------------------------------


class TestLeaseLifecycle:
    def test_completion_releases_lease_and_worker_state(self):
        manager, workers, channel = build_lease_setup(2, protocol="central")
        job_id = 0
        worker = workers[0]
        assert job_id in manager.assignments
        assert worker.lease_valid(job_id)
        manager.complete(job_id)
        assert job_id not in manager.assignments
        assert job_id not in worker.leases
        assert job_id not in worker.exit_iterations
        assert job_id not in worker.metrics

    def test_finished_jobs_generate_no_central_renewal_traffic(self):
        manager, _workers, channel = build_lease_setup(2, gpus_per_node=2, protocol="central")
        total_jobs = 4
        manager.renewal_round()
        assert channel.total_calls == 2 * total_jobs  # one check + one renew per lease
        manager.complete(0)
        manager.complete(1)
        manager.renewal_round()
        assert channel.total_calls == 2 * (total_jobs - 2)

    def test_completion_clears_state_on_former_workers_after_migration(self):
        manager, workers, _channel = build_lease_setup(4, protocol="optimistic")
        manager.grant(500, [0, 1])
        manager.renewal_round([500])  # preempted: drain state stays on 0 and 1
        assert workers[0].exit_iterations.get(500) is not None
        manager.grant(500, [2, 3])  # relaunched elsewhere
        manager.complete(500)
        for worker in workers:
            assert 500 not in worker.leases
            assert 500 not in worker.exit_iterations
            assert 500 not in worker.metrics

    def test_central_revocation_releases_assignment(self):
        manager, _workers, _channel = build_lease_setup(2, protocol="central")
        manager.renewal_round([0])
        assert 0 not in manager.assignments
        manager.renewal_round([0])  # revoking again is a no-op, not an error


# ----------------------------------------------------------------------
# Optimistic protocol: one revoke per job, worker-to-worker fan-out
# ----------------------------------------------------------------------


class TestOptimisticProtocol:
    def test_scheduler_issues_exactly_one_revoke_per_revoked_job(self):
        # An endpoint's busy time since the round reset the accounting is
        # RPC_BASE_MS per call it issued plus RPC_SERVER_MS per call it served.
        manager, workers, channel = build_lease_setup(4, protocol="optimistic")
        manager.grant(100, [0, 1, 2, 3])
        manager.grant(101, [0, 1])
        delivered = []
        for worker in workers:

            def counted(payload, handle=worker._handle_revoke, name=worker.endpoint_name):
                delivered.append(name)
                return handle(payload)

            channel.register(worker.endpoint_name, "revoke_lease", counted)
        manager.renewal_round([100, 101])
        # The scheduler served nothing and issued two calls.
        assert channel.busy_ms(SCHEDULER_ENDPOINT) == 2 * RPC_BASE_MS
        # Peers were reached by worker-to-worker propagation, not by the
        # scheduler: every other call of the round was issued by a worker
        # (3 peers of job 100, 1 peer of job 101), and the workers served
        # all six.
        worker_busy = sum(channel.busy_ms(w.endpoint_name) for w in workers)
        assert worker_busy == pytest.approx(
            (3 + 1) * RPC_BASE_MS + (2 + 4) * RPC_SERVER_MS, rel=1e-12
        )
        # Every call of the round delivered a revoke.
        assert channel.total_calls == len(delivered) == 2 + 4

    def test_peer_fanout_does_not_bill_the_scheduler(self):
        manager, _workers, channel = build_lease_setup(8, protocol="optimistic")
        manager.grant(200, list(range(8)))
        manager.renewal_round([200])
        # One client-side cost for the single revoke, regardless of gang width.
        assert channel.busy_ms(SCHEDULER_ENDPOINT) == RPC_BASE_MS

    def test_exit_iterations_are_concrete_integers(self):
        manager, workers, _channel = build_lease_setup(3, protocol="optimistic")
        manager.grant(300, [0, 1, 2])
        workers[0].record_iteration(300, 41)
        manager.renewal_round([300])
        for worker in workers:
            assert worker.exit_iterations[300] == 42
            assert isinstance(worker.exit_iterations[300], int)

    def test_revoke_is_idempotent_for_unknown_and_completed_jobs(self):
        channel = InMemoryRpcChannel()
        worker = WorkerManager(node_id=0, channel=channel)
        assert worker._handle_revoke({"job_id": 99}) is False  # never launched
        worker._handle_launch({"job_id": 7})
        worker.job_finished(7)  # completed between decision and revoke
        assert worker._handle_revoke({"job_id": 7}) is False
        assert 7 not in worker.exit_iterations

    def test_renewal_round_skips_jobs_completed_between_decision_and_revoke(self):
        manager, _workers, channel = build_lease_setup(2, protocol="optimistic")
        manager.complete(0)
        latency = manager.renewal_round([0])
        assert latency == 0.0
        assert channel.total_calls == 0

    def test_revocation_survives_workers_whose_node_left(self):
        manager, _workers, _channel = build_lease_setup(3, protocol="optimistic")
        manager.grant(400, [0, 1, 2])
        manager.deregister_worker(0)
        manager.renewal_round([400])  # first worker gone: next one is contacted
        assert 400 not in manager.assignments
        manager.grant(401, [1])
        manager.deregister_worker(1)
        manager.renewal_round([401])  # every worker gone: lease dies silently
        assert 401 not in manager.assignments


# ----------------------------------------------------------------------
# Fig. 19 scaling shape
# ----------------------------------------------------------------------


class TestLeaseScaling:
    def test_central_latency_grows_with_cluster_size(self):
        latencies = [measure_lease_round(n, "central", 2) for n in (4, 8, 16)]
        assert latencies[0] < latencies[1] < latencies[2]

    def test_optimistic_latency_depends_only_on_revocations(self):
        across_sizes = {measure_lease_round(n, "optimistic", 2) for n in (4, 8, 16)}
        assert len(across_sizes) == 1
        by_revocations = [measure_lease_round(16, "optimistic", r) for r in (0, 2, 8)]
        assert by_revocations[0] < by_revocations[1] < by_revocations[2]


# ----------------------------------------------------------------------
# Client library: two-phase exit
# ----------------------------------------------------------------------


class TestTwoPhaseExit:
    def _distributed_job(self, total_iterations=50):
        worker_a = WorkerManager(node_id=0)
        worker_b = WorkerManager(node_id=1)
        for worker in (worker_a, worker_b):
            worker._handle_launch({"job_id": 1})
        loader_a = BloxDataLoader(1, worker_a, total_iterations)
        loader_b = BloxDataLoader(1, worker_b, total_iterations)
        loader_a.attach_peers([loader_a, loader_b])
        loader_b.attach_peers([loader_a, loader_b])
        return worker_a, worker_b, loader_a, loader_b

    def test_peers_racing_ahead_stop_at_the_same_boundary(self):
        worker_a, _worker_b, loader_a, loader_b = self._distributed_job()
        next(loader_b)
        next(loader_b)  # b raced two iterations ahead of a
        worker_a.leases[1] = False  # revocation lands at a's worker
        checkpoint_a = loader_a.run_to_completion_or_preemption()
        checkpoint_b = loader_b.run_to_completion_or_preemption()
        assert checkpoint_a.iteration == checkpoint_b.iteration == 3
        assert checkpoint_a.consistent and checkpoint_b.consistent

    def test_rpc_revocation_fixes_the_boundary_for_all_loaders(self):
        channel = InMemoryRpcChannel()
        workers = [WorkerManager(node_id=i, channel=channel) for i in range(2)]
        manager = OptimisticLeaseManager(workers, channel)
        manager.grant(1, [0, 1])
        loaders = [BloxDataLoader(1, w, total_iterations=50) for w in workers]
        for loader in loaders:
            loader.attach_peers(loaders)
        for loader in loaders:
            for _ in range(4):
                next(loader)
        manager.renewal_round([1])
        checkpoints = [loader.run_to_completion_or_preemption() for loader in loaders]
        assert checkpoints[0].iteration == checkpoints[1].iteration == 5

    def test_rpc_boundary_is_raised_past_peers_that_raced_ahead(self):
        channel = InMemoryRpcChannel()
        workers = [WorkerManager(node_id=i, channel=channel) for i in range(2)]
        manager = OptimisticLeaseManager(workers, channel)
        manager.grant(1, [0, 1])
        loaders = [BloxDataLoader(1, w, total_iterations=50) for w in workers]
        for loader in loaders:
            loader.attach_peers(loaders)
        for _ in range(4):
            next(loaders[0])
        for _ in range(6):
            next(loaders[1])  # raced past the boundary worker 0 would fix (5)
        manager.renewal_round([1])
        checkpoints = [loader.run_to_completion_or_preemption() for loader in loaders]
        # The worker-fixed boundary is a floor; the loaders raise it to one
        # past the furthest peer so both checkpoint at the same iteration.
        assert checkpoints[0].iteration == checkpoints[1].iteration == 7
        assert all(c.consistent for c in checkpoints)

    def test_completion_clears_worker_state(self):
        worker = WorkerManager(node_id=0)
        worker._handle_launch({"job_id": 5})
        loader = BloxDataLoader(5, worker, total_iterations=3)
        checkpoint = loader.run_to_completion_or_preemption()
        assert checkpoint.iteration == 3
        assert 5 not in worker.leases
        assert 5 not in worker.job_iterations


# ----------------------------------------------------------------------
# CentralScheduler: lifecycle, churn, parity, metrics
# ----------------------------------------------------------------------


def small_trace(num_jobs=14, seed=11):
    return generate_philly_trace(num_jobs=num_jobs, jobs_per_hour=8.0, seed=seed)


def churn_scenario():
    return ScenarioSpec(
        name="runtime-churn-test",
        cluster=ClusterSpec(num_nodes=4, gpus_per_node=4, gpu_type="v100"),
        workload=WorkloadSpec(generator="philly", num_jobs=16, jobs_per_hour=10.0),
        timeline=(
            ScaleOut(at=3600.0, num_nodes=2),
            FailNodes(at=7200.0, count=1, recover_after=3600.0),
            ScaleIn(at=14400.0, num_nodes=2),
        ),
    ).compile(7)


class TestCentralScheduler:
    def test_all_leases_released_at_end_of_run(self):
        trace = small_trace()
        scheduler = CentralScheduler(
            cluster_state=build_cluster(num_nodes=4),
            jobs=trace.fresh_jobs(),
            scheduling_policy=TiresiasScheduling(),
            overhead_model=OverheadModel(),
            tracked_job_ids=trace.tracked_ids(),
        )
        result = scheduler.run()
        assert result.completion_fraction() == 1.0
        assert scheduler.lease_manager.assignments == {}
        for worker in scheduler.workers.values():
            # Completion clears worker state everywhere the job ever ran --
            # revoked-lease and exit-iteration drain entries included.
            assert worker.leases == {}
            assert worker.exit_iterations == {}

    def test_runs_on_the_callers_overhead_model(self):
        """Launch, preemption and execution share the model handed in, and
        the RPC mechanisms are the manager's from construction on."""
        trace = small_trace()
        model = ClusterOverheadModel(seed=1)
        scheduler = CentralScheduler(
            cluster_state=build_cluster(num_nodes=4),
            jobs=trace.fresh_jobs(),
            scheduling_policy=TiresiasScheduling(),
            overhead_model=model,
            tracked_job_ids=trace.tracked_ids(),
        )
        manager = scheduler.manager
        assert manager.execution.overheads is model
        assert isinstance(manager.launcher, RpcLauncher)
        assert isinstance(manager.preemptor, RpcPreemption)
        assert manager.launcher.overheads is model
        assert manager.preemptor is scheduler.preemptor
        assert manager.preemptor.overheads is model
        assert manager.launcher.lease_manager is scheduler.lease_manager
        assert manager.preemptor.lease_manager is scheduler.lease_manager
        assert scheduler.run().completion_fraction() == 1.0
        assert scheduler.leaked_leases() == 0

    def test_a_metric_collector_samples_every_deployment_round(self):
        """Blox's metric-collector module runs on the deployment path as in
        simulation: it turns round skipping off, sees every round once, at
        its start time, and leaves the schedule of the default run alone."""
        trace = small_trace()

        def build(**kwargs):
            return CentralScheduler(
                cluster_state=build_cluster(num_nodes=4),
                jobs=trace.fresh_jobs(),
                scheduling_policy=TiresiasScheduling(),
                overhead_model=OverheadModel(),
                tracked_job_ids=trace.tracked_ids(),
                **kwargs,
            )

        collector = UtilizationCollector()
        scheduler = build(metric_collectors=[collector])
        assert scheduler._simulator.fast_forward is False
        collected = scheduler.run()
        assert schedule_diff(build().run(), collected).identical
        assert collector.timestamps == [
            n * collected.round_duration for n in range(collected.rounds)
        ]

    def test_schedule_parity_with_plain_simulator_zero_overheads(self):
        trace = small_trace()
        zero = OverheadModel(scale=0)
        scheduler = CentralScheduler(
            cluster_state=build_cluster(num_nodes=4),
            jobs=trace.fresh_jobs(),
            scheduling_policy=FifoScheduling(),
            overhead_model=zero,
            tracked_job_ids=trace.tracked_ids(),
        )
        deployment = scheduler.run()
        simulation = Simulator(
            cluster_state=build_cluster(num_nodes=4),
            jobs=trace.fresh_jobs(),
            scheduling_policy=FifoScheduling(),
            overhead_model=OverheadModel(scale=0),
            tracked_job_ids=trace.tracked_ids(),
        ).run()
        assert {j.job_id: j.completion_time for j in deployment.jobs} == {
            j.job_id: j.completion_time for j in simulation.jobs
        }
        assert deployment.rounds == simulation.rounds
        assert deployment.round_log == simulation.round_log

    def test_membership_dynamics_under_scenario_churn(self):
        compiled = churn_scenario()
        scheduler = CentralScheduler(
            cluster_state=compiled.build_cluster(),
            jobs=compiled.trace.fresh_jobs(),
            scheduling_policy=TiresiasScheduling(),
            overhead_model=OverheadModel(),
            cluster_manager=compiled.make_cluster_manager(),
            tracked_job_ids=compiled.trace.tracked_ids(),
        )
        log = record_membership(scheduler.lease_manager)
        result = scheduler.run()  # must not raise LeaseError
        assert result.completion_fraction() == 1.0
        registered = [n for op, n in log if op == "register"]
        deregistered = [n for op, n in log if op == "deregister"]
        assert registered == [4, 5]  # the two scaled-out nodes joined...
        assert deregistered == [4, 5]  # ...and were reclaimed by scale-in
        assert sorted(scheduler.workers) == [0, 1, 2, 3]

    def test_churn_parity_deployment_vs_simulation(self):
        compiled = churn_scenario()
        scheduler = CentralScheduler(
            cluster_state=compiled.build_cluster(),
            jobs=compiled.trace.fresh_jobs(),
            scheduling_policy=TiresiasScheduling(),
            overhead_model=OverheadModel(),
            cluster_manager=compiled.make_cluster_manager(),
            tracked_job_ids=compiled.trace.tracked_ids(),
        )
        deployment = scheduler.run()
        simulation = Simulator(
            cluster_state=compiled.build_cluster(),
            jobs=compiled.trace.fresh_jobs(),
            scheduling_policy=TiresiasScheduling(),
            cluster_manager=compiled.make_cluster_manager(),
            round_duration=compiled.spec.round_duration,
            tracked_job_ids=compiled.trace.tracked_ids(),
        ).run()
        assert {j.job_id: j.completion_time for j in deployment.jobs} == {
            j.job_id: j.completion_time for j in simulation.jobs
        }
        assert deployment.rounds == simulation.rounds

    def test_grant_on_unknown_node_still_fails_loudly(self):
        channel = InMemoryRpcChannel()
        manager = CentralLeaseManager([WorkerManager(node_id=0, channel=channel)], channel)
        with pytest.raises(LeaseError):
            manager.grant(1, [42])

    def test_worker_metrics_are_pulled_into_the_aggregate(self):
        trace = small_trace(num_jobs=8)
        scheduler = CentralScheduler(
            cluster_state=build_cluster(num_nodes=4),
            jobs=trace.fresh_jobs(),
            scheduling_policy=FifoScheduling(),
            overhead_model=OverheadModel(),
            tracked_job_ids=trace.tracked_ids(),
        )
        result = scheduler.run()
        aggregator = scheduler.worker_metrics
        assert aggregator is not None
        finished = [j for j in result.jobs if j.completion_time is not None]
        # One pull each time a job stopped running: preempted or completed.
        assert aggregator.pulls == sum(j.num_preemptions for j in result.jobs) + len(finished)
        # Every job that ran reported work_done through its worker store.
        assert set(aggregator.latest) == {j.job_id for j in finished}
        for job in finished:
            assert aggregator.latest_for(job.job_id)["work_done"] == job.work_done > 0


# ----------------------------------------------------------------------
# Worker metrics travel as deltas, when a job stops running
# ----------------------------------------------------------------------


def _job(job_id, work_done=0.0):
    job = Job(arrival_time=0.0, num_gpus=1, duration=3600.0, job_id=job_id)
    job.work_done = work_done
    return job


def _enter(aggregator, job):
    aggregator.on_status_change(job, JobStatus.RUNNABLE, JobStatus.RUNNING)


def _leave(aggregator, job, status=JobStatus.PREEMPTED):
    aggregator.on_status_change(job, JobStatus.RUNNING, status)


def metric_setup(num_nodes=4):
    channel = InMemoryRpcChannel()
    workers = [WorkerManager(node_id=i, channel=channel) for i in range(num_nodes)]
    manager = OptimisticLeaseManager(workers, channel)
    return manager, workers, channel, WorkerMetricsAggregator(channel, manager)


def spy_on_pulls(scheduler, after=None):
    """Every ``pull_metrics`` reply of a scheduler's channel, in call order."""
    replies = []
    call = scheduler.channel.call

    def spied(endpoint, method, *args, **kwargs):
        reply = call(endpoint, method, *args, **kwargs)
        if method == "pull_metrics":
            replies.append(reply)
            if after is not None:
                after(reply)
        return reply

    scheduler.channel.call = spied
    return replies


def record_membership(lease_manager):
    """``[(op, node id), ...]``: every worker registration and deregistration
    the lease manager makes through its public API, in call order."""
    log = []
    register, deregister = lease_manager.register_worker, lease_manager.deregister_worker

    def registered(worker):
        log.append(("register", worker.node_id))
        register(worker)

    def deregistered(node_id):
        log.append(("deregister", node_id))
        deregister(node_id)

    lease_manager.register_worker = registered
    lease_manager.deregister_worker = deregistered
    return log


def spy_on_full_rounds(scheduler, after):
    """Run ``after(job_state, cluster_state)`` after every full round's ``exec_jobs``."""
    manager = scheduler.manager
    exec_jobs = manager.exec_jobs

    def spied(decision, cluster_state, job_state):
        launched = exec_jobs(decision, cluster_state, job_state)
        after(job_state, cluster_state)
        return launched

    manager.exec_jobs = spied


def count_steady_scans(scheduler):
    """Live count of the execution model's multi-round folds."""
    model = scheduler._simulator.execution_model
    scan = model.steady_scan
    calls = [0]

    def spied(*args):
        calls[0] += 1
        return scan(*args)

    model.steady_scan = spied
    return calls


class TestWorkerMetricsDelta:
    def test_pull_returns_what_was_written_since_the_last_pull(self):
        worker = WorkerManager(node_id=0)
        worker.push_metrics(1, {"loss": 0.5, "work_done": 10.0})
        worker.push_metric(2, "loss", 0.9)
        assert worker.pull_metrics() == {1: {"loss": 0.5, "work_done": 10.0}, 2: {"loss": 0.9}}
        assert worker.pull_metrics() == {}
        # The store keeps the whole entry; a new write ships the whole entry.
        WorkerMetricsCollector(job_id=1, worker=worker).push_many({"work_done": 20.0})
        assert worker.pull_metrics() == {1: {"loss": 0.5, "work_done": 20.0}}
        assert worker.metrics[2] == {"loss": 0.9}

    def test_pulled_entries_are_copies(self):
        worker = WorkerManager(node_id=0)
        worker.push_metrics(1, {"work_done": 10.0})
        delta = worker.pull_metrics()
        delta[1]["work_done"] = -1.0
        assert worker.metrics[1] == {"work_done": 10.0}
        worker.push_metrics(1, {"work_done": 11.0})
        assert delta[1] == {"work_done": -1.0}

    def test_job_finished_drops_the_unpulled_mark(self):
        worker = WorkerManager(node_id=0)
        worker.push_metrics(1, {"work_done": 10.0})
        worker.job_finished(1)
        assert worker.pull_metrics() == {}

    def test_migrated_job_follows_its_current_worker(self):
        # Preempted off node 3, relaunched on node 0: node 3 keeps the old
        # entry until completion but is never pulled again, so its stale
        # value can never overwrite node 0's.
        manager, workers, _channel, aggregator = metric_setup()
        job = _job(500, work_done=10.0)
        manager.grant(500, [3])
        _enter(aggregator, job)
        manager.renewal_round([500])  # the lease is revoked before the status write
        _leave(aggregator, job)
        assert aggregator.latest_for(500)["work_done"] == 10.0
        manager.grant(500, [0])
        _enter(aggregator, job)
        for work_done in (20.0, 30.0):
            job.work_done = work_done  # a running job is read, not pulled
            assert aggregator.latest_for(500)["work_done"] == work_done
        _leave(aggregator, job, JobStatus.COMPLETED)
        assert aggregator.latest_for(500)["work_done"] == 30.0
        assert workers[0].metrics[500] == {"work_done": 30.0}
        assert workers[3].metrics[500] == {"work_done": 10.0}  # still held, never re-shipped

    def test_only_reporting_workers_are_pulled(self):
        manager, _workers, channel, aggregator = metric_setup(num_nodes=8)
        manager.grant(1, [2, 5])  # a gang reports through its first node
        manager.grant(2, [2])
        manager.grant(3, [6])
        jobs = [_job(1, 1.0), _job(2, 2.0), _job(3, 3.0)]
        channel.reset_accounting()
        for job in jobs:
            _enter(aggregator, job)
        assert channel.total_calls == 0  # entering RUNNING ships nothing
        assert aggregator.latest_for(2) == {"work_done": 2.0}  # nor does a read
        assert channel.total_calls == 0
        for job in jobs:
            _leave(aggregator, job)
        assert channel.total_calls == 3  # worker-2 twice and worker-6, not all eight
        assert channel.busy_ms("worker-5") == 0.0
        assert {j: v["work_done"] for j, v in aggregator.latest.items()} == {1: 1.0, 2: 2.0, 3: 3.0}
        assert aggregator.pulls == 3

    def test_worker_registered_mid_run_is_pulled_once_it_hosts_a_reporting_job(self):
        manager, _workers, channel, aggregator = metric_setup(num_nodes=2)
        manager.register_worker(WorkerManager(node_id=9, channel=channel))
        assert channel.busy_ms("worker-9") == 0.0
        manager.grant(7, [9])
        job = _job(7, 5.0)
        _enter(aggregator, job)
        _leave(aggregator, job)
        assert channel.busy_ms("worker-9") > 0.0
        assert aggregator.latest_for(7) == {"work_done": 5.0}

    def test_deregistered_worker_takes_its_unpulled_entries_with_it(self):
        manager, workers, _channel, aggregator = metric_setup(num_nodes=2)
        manager.grant(7, [1])
        job = _job(7, 6.0)
        _enter(aggregator, job)
        workers[1].push_metrics(7, {"work_done": 5.0})  # written, never pulled
        manager.deregister_worker(1)
        _leave(aggregator, job)  # reporting worker gone
        assert aggregator.latest == {}
        assert aggregator.pulls == 0

    def test_pulled_work_done_tracks_the_last_push_over_a_contended_run(self):
        # The runtime-leases benchmark shape at scale 0.2: 1.4x load, ~2 000
        # preemptions per 4 000 jobs, so most migrations leave a stale entry
        # behind on a former worker.
        jobs = generate_philly_trace(
            num_jobs=800,
            jobs_per_hour=60.0,
            seed=7,
            median_duration_hours=2.0,
            duration_sigma=0.7,
            max_duration_hours=6.0,
        ).jobs
        scheduler = CentralScheduler(
            cluster_state=build_cluster(num_nodes=64),
            jobs=jobs,
            scheduling_policy=TiresiasScheduling(),
            overhead_model=OverheadModel(),
        )
        job_state = scheduler._simulator.job_state
        keys = REPORTED_KEYS
        unsettled = []

        def check_report(reply):
            # A job reports its metrics as of the moment it stops: read
            # again now, a stopped job's are the same.
            for job_id, values in reply.items():
                metrics = job_state.get(job_id).metrics
                if {k: values.get(k) for k in keys} != {k: metrics.get(k) for k in keys}:
                    unsettled.append(job_id)

        replies = spy_on_pulls(scheduler, after=check_report)
        result = scheduler.run()
        assert len(scheduler.lease_latencies_ms()) > 100  # contended: many migrations
        assert unsettled == []
        pulled, decreased = {}, []
        for reply in replies:
            for job_id, values in reply.items():
                if values["work_done"] < pulled.get(job_id, 0.0):
                    decreased.append(job_id)
                pulled[job_id] = values["work_done"]
        assert decreased == []
        assert len(pulled) == 800
        aggregator = scheduler.worker_metrics
        inexact = [
            j.job_id
            for j in result.jobs
            if not aggregator.latest_for(j.job_id)["work_done"] == pulled[j.job_id] == j.work_done
        ]
        assert inexact == []

    @pytest.mark.parametrize("policy", ["tiresias", "pollux"])
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_lease_assignment_names_the_nodes_of_every_running_job(self, scenario, policy):
        # The aggregator takes a job's reporting worker from its lease
        # assignment when the job enters RUNNING instead of rebuilding
        # ``nodes_for_job``; that is only sound while the two agree for
        # every running job, checked after every full round's launches of
        # the default run and of the stepping one.
        checked, mismatches = 0, []
        for fast_forward in (True, False):
            scheduler = RunSpec(
                mode="runtime", policy=policy, scenario=scenario, scenario_smoke=True
            ).build(fast_forward=fast_forward)
            assignments = scheduler.lease_manager.assignments
            reporting = scheduler.worker_metrics.reporting

            def compare(job_state, cluster_state):
                nonlocal checked
                for job in job_state.running_jobs():
                    checked += 1
                    assignment = assignments.get(job.job_id)
                    nodes = cluster_state.nodes_for_job(job.job_id)
                    _, reporter = reporting.get(job.job_id, (None, None))
                    if assignment is None or assignment.node_ids != nodes or reporter != nodes[0]:
                        mismatches.append((job.job_id, assignment, nodes, reporter))

            spy_on_full_rounds(scheduler, after=compare)
            scheduler.run()
        assert checked > 1000
        assert mismatches == []

    @pytest.mark.parametrize("scenario", ["scale-cycle", "chaos"])
    def test_stepping_run_pulls_the_same_deltas_as_the_default_run(self, scenario):
        spec = RunSpec(mode="runtime", policy="tiresias", scenario=scenario)
        default, stepping = spec.build(), spec.build(fast_forward=False)
        membership = record_membership(default.lease_manager)
        default_result = default.run()
        stepping_result = stepping.run()
        if scenario == "scale-cycle":  # workers join and leave mid-run
            assert len(membership) > 8
        assert default._simulator.execution_model._defer
        assert {j.job_id: j.completion_time for j in default_result.jobs} == {
            j.job_id: j.completion_time for j in stepping_result.jobs
        }
        assert default.worker_metrics.latest == stepping.worker_metrics.latest
        assert default.worker_metrics.pulls == stepping.worker_metrics.pulls
        assert default.channel.lifetime_calls == stepping.channel.lifetime_calls

    def test_control_traffic_of_a_seeded_run_is_pinned(self):
        # Counted work, not wall time: 455 lease messages plus one pull each
        # time a job stopped running (120, recorded from the run, not
        # derived).  A pull per reporting worker per round read 3 071 calls,
        # polling all 8 workers every round 455 + 8 x 730 = 6 295.
        scheduler = RunSpec(
            mode="runtime", policy="tiresias", seed=11, num_jobs=40, jobs_per_hour=12.0
        ).build()
        result = scheduler.run()
        assert result.completion_fraction() == 1.0
        assert result.rounds == 730
        stops = sum(j.num_preemptions for j in result.jobs) + len(result.jobs)
        assert scheduler.worker_metrics.pulls == stops == 120
        assert scheduler.channel.lifetime_calls == 575


class TestDeploymentPathDefers:
    """Worker metrics ride on status transitions, so progress stays deferred."""

    def test_a_deterministic_run_defers_and_folds_many_rounds_at_once(self):
        scheduler = RunSpec(mode="runtime", policy="tiresias", num_jobs=40).build()
        assert scheduler._simulator.fast_forward
        assert scheduler._simulator.execution_model._defer
        scans = count_steady_scans(scheduler)
        scheduler.run()
        assert scans[0] >= 1

    @pytest.mark.parametrize("scenario", ["scale-cycle", "chaos"])
    def test_a_paused_run_reports_every_running_job_as_stepping_does(self, scenario):
        spec = RunSpec(mode="runtime", policy="tiresias", scenario=scenario)
        default, stepping = spec.build(), spec.build(fast_forward=False)
        for stop_time in (20_000.0, 60_000.0):
            default._simulator._advance_loop(stop_time)
            stepping._simulator._advance_loop(stop_time)
            running = default._simulator.job_state.running_jobs()
            assert running
            assert [j.job_id for j in running] == [
                j.job_id for j in stepping._simulator.job_state.running_jobs()
            ]
            for job in running:
                assert default.worker_metrics.latest_for(job.job_id) == (
                    stepping.worker_metrics.latest_for(job.job_id)
                )
                assert default.worker_metrics.latest_for(job.job_id)["work_done"] == job.work_done
            assert default.worker_metrics.latest == stepping.worker_metrics.latest
            assert default.channel.lifetime_calls == stepping.channel.lifetime_calls

    def test_a_jittered_run_stays_eager_and_still_reports(self):
        trace = small_trace(num_jobs=12)
        scheduler = CentralScheduler(
            cluster_state=build_cluster(num_nodes=4),
            jobs=trace.fresh_jobs(),
            scheduling_policy=FifoScheduling(),
            overhead_model=ClusterOverheadModel(),
        )
        assert scheduler._simulator.fast_forward is False
        assert not scheduler._simulator.execution_model._defer
        result = scheduler.run()
        latest = scheduler.worker_metrics.latest
        assert set(latest) == {j.job_id for j in result.jobs}
        for job in result.jobs:
            assert latest[job.job_id]["work_done"] == job.work_done > 0
            assert latest[job.job_id]["loss"] == job.metrics["loss"]


class TestFidelityRunner:
    def test_fig18_deviation_is_small(self):
        table = run_figure(FIGURES["fig18"], smoke=True)
        assert [row["policy"] for row in table.rows] == ["fifo", "srtf", "tiresias"]
        for row in table.rows:
            # The deployment path with cluster jitter must track plain
            # simulation to within a few per cent (the Fig. 18 claim).
            assert row["avg_jct_deviation"] < 0.10


class TestDeploymentClusterManager:
    """The engine sees the deployment path's cluster manager unwrapped."""

    def _scheduler(self, compiled, cluster_manager):
        return CentralScheduler(
            cluster_state=compiled.build_cluster(),
            jobs=compiled.trace.fresh_jobs(),
            scheduling_policy=FifoScheduling(),
            cluster_manager=cluster_manager,
            # Deterministic rates: jitter alone disables fast-forward, so the
            # manager rule is the only one these tests exercise.
            overhead_model=OverheadModel(),
        )

    def test_unmigrated_manager_disables_event_skipping(self):
        class LegacyManager(ClusterManager):
            def update(self, cluster_state, current_time):
                return []

        scheduler = self._scheduler(churn_scenario(), LegacyManager())
        assert scheduler._simulator.fast_forward is False

    def test_timeline_manager_keeps_event_bound(self):
        compiled = churn_scenario()
        timeline = compiled.make_cluster_manager()
        scheduler = self._scheduler(compiled, timeline)
        assert scheduler._simulator.fast_forward is True
        assert scheduler.manager.cluster_manager is timeline
        assert timeline.next_event_time(0.0) == 3600.0
