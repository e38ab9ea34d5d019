"""Tests for the deployment-path runtime layer (leases, RPC, CentralScheduler).

Covers the lease lifecycle (grant / renew / revoke / complete), the two-phase
optimistic exit protocol with worker-to-worker propagation, the caller-aware
RPC cost accounting behind Fig. 19, membership dynamics under scenario churn,
and schedule parity between the deployment path and the plain simulator.
"""

from types import SimpleNamespace

import pytest

from repro.cluster.builder import ClusterSpec, build_cluster
from repro.core.abstractions import ClusterManager
from repro.core.exceptions import ConfigurationError, LeaseError
from repro.core.job import Job
from repro.experiments.fig19_lease_scaling import measure_lease_round
from repro.policies.scheduling.fifo import FifoScheduling
from repro.policies.scheduling.tiresias import TiresiasScheduling
from repro.runtime import (
    BloxDataLoader,
    CentralLeaseManager,
    CentralScheduler,
    InMemoryRpcChannel,
    MembershipSyncManager,
    OptimisticLeaseManager,
    RpcCostModel,
    WorkerManager,
    WorkerMetricsAggregator,
    WorkerMetricsCollector,
    build_lease_setup,
)
from repro.runtime.lease import SCHEDULER_ENDPOINT
from repro.scenarios.registry import scenario_names
from repro.scenarios.spec import FailNodes, ScaleIn, ScaleOut, ScenarioSpec, WorkloadSpec
from repro.simulator.engine import Simulator
from repro.simulator.overheads import OverheadModel
from repro.telemetry.runspec import RunSpec
from repro.workloads.philly import generate_philly_trace


def scheduler_calls(channel, method=None):
    calls = [c for c in channel.call_log if c.caller == SCHEDULER_ENDPOINT]
    if method is not None:
        calls = [c for c in calls if c.method == method]
    return calls


# ----------------------------------------------------------------------
# RPC channel accounting
# ----------------------------------------------------------------------


class TestRpcAccounting:
    def test_caller_and_callee_are_billed_separately(self):
        channel = InMemoryRpcChannel(RpcCostModel(base_ms=1.0, server_ms=10.0))
        channel.register("b", "ping", lambda p: "pong")
        channel.call("b", "ping", {}, caller="a")
        assert channel.busy_ms("a") == 1.0
        assert channel.busy_ms("b") == 10.0
        assert channel.critical_path_ms() == 10.0

    def test_nested_calls_bill_the_handling_endpoint(self):
        channel = InMemoryRpcChannel(RpcCostModel(base_ms=1.0, server_ms=10.0))
        channel.register("c", "leaf", lambda p: None)
        channel.register("b", "fan", lambda p: channel.call("c", "leaf", {}))
        channel.call("b", "fan", {}, caller="a")
        # a paid one client cost; b paid its server cost plus the client cost
        # of the nested call it made; c paid one server cost.  Nothing from
        # the fan-out lands on a.
        assert channel.busy_ms("a") == 1.0
        assert channel.busy_ms("b") == 11.0
        assert channel.busy_ms("c") == 10.0

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

    def test_unlogged_calls_still_count_and_bill(self):
        channel = InMemoryRpcChannel()
        channel.register("b", "ping", lambda p: None)
        channel.call("b", "ping", {}, caller="a", log=False)
        assert channel.total_calls == 1
        assert channel.call_log == []
        assert channel.busy_ms("b") > 0


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
        manager, _workers, channel = build_lease_setup(4, protocol="optimistic")
        manager.grant(100, [0, 1, 2, 3])
        manager.grant(101, [0, 1])
        manager.renewal_round([100, 101])
        assert len(scheduler_calls(channel, "revoke_lease")) == 2
        # Peers were reached by worker-to-worker propagation, not by the
        # scheduler: every other revoke names a worker as its caller.
        peer_revokes = [
            c
            for c in channel.call_log
            if c.method == "revoke_lease" and c.caller != SCHEDULER_ENDPOINT
        ]
        assert len(peer_revokes) == 3 + 1  # 3 peers of job 100, 1 peer of job 101
        assert all(c.caller.startswith("worker-") for c in peer_revokes)

    def test_peer_fanout_does_not_bill_the_scheduler(self):
        cost = RpcCostModel(base_ms=1.0, server_ms=2.0)
        manager, _workers, channel = build_lease_setup(8, cost_model=cost, protocol="optimistic")
        manager.grant(200, list(range(8)))
        manager.renewal_round([200])
        # One client-side cost for the single revoke, regardless of gang width.
        assert channel.busy_ms(SCHEDULER_ENDPOINT) == 1.0

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
    @pytest.mark.parametrize("lease_protocol", ["central", "optimistic"])
    def test_all_leases_released_at_end_of_run(self, lease_protocol):
        trace = small_trace()
        scheduler = CentralScheduler(
            cluster_state=build_cluster(num_nodes=4),
            jobs=trace.fresh_jobs(),
            scheduling_policy=TiresiasScheduling(),
            lease_protocol=lease_protocol,
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
            assert worker.running_jobs == []

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
        result = scheduler.run()  # must not raise LeaseError
        assert result.completion_fraction() == 1.0
        log = scheduler.lease_manager.membership_log
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
        assert aggregator.pull_rounds > 0
        finished = [j for j in result.jobs if j.completion_time is not None]
        # Every job that ran reported work_done through its worker store.
        assert set(aggregator.latest) == {j.job_id for j in finished}
        for job in finished:
            assert aggregator.latest_for(job.job_id)["work_done"] > 0


# ----------------------------------------------------------------------
# Worker metrics travel as deltas
# ----------------------------------------------------------------------


def _Running(*jobs):
    """A stand-in for the one ``JobState`` method the aggregator reads."""
    return SimpleNamespace(running_jobs=lambda: list(jobs))


def _job(job_id, work_done=0.0):
    job = Job(arrival_time=0.0, num_gpus=1, duration=3600.0, job_id=job_id)
    job.work_done = work_done
    return job


def metric_setup(num_nodes=4):
    channel = InMemoryRpcChannel()
    workers = [WorkerManager(node_id=i, channel=channel) for i in range(num_nodes)]
    manager = OptimisticLeaseManager(workers, channel)
    return manager, workers, channel, WorkerMetricsAggregator(channel, manager)


def spy_on_collect(scheduler, before=None, after=None):
    """Run ``before``/``after`` around every ``collect`` of a scheduler."""
    aggregator = scheduler.worker_metrics
    collect = aggregator.collect

    def spied(job_state, cluster_state, current_time):
        if before is not None:
            before(job_state, cluster_state)
        collect(job_state, cluster_state, current_time)
        if after is not None:
            after(job_state, cluster_state)

    aggregator.collect = spied
    return aggregator


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
        # entry until completion, and pulls merge in node order -- a full
        # pull would let node 3's stale value overwrite node 0's every round.
        manager, workers, _channel, aggregator = metric_setup()
        job = _job(500, work_done=10.0)
        manager.grant(500, [3])
        aggregator.collect(_Running(job), None, 0.0)
        assert aggregator.latest_for(500)["work_done"] == 10.0
        manager.renewal_round([500])
        manager.grant(500, [0])
        for work_done in (20.0, 30.0):
            job.work_done = work_done
            aggregator.collect(_Running(job), None, 300.0)
            assert aggregator.latest_for(500)["work_done"] == work_done
        assert workers[3].metrics[500] == {"work_done": 10.0}  # still held, never re-shipped

    def test_only_reporting_workers_are_pulled(self):
        manager, _workers, channel, aggregator = metric_setup(num_nodes=8)
        manager.grant(1, [2, 5])  # a gang reports through its first node
        manager.grant(2, [2])
        manager.grant(3, [6])
        channel.reset_accounting()
        aggregator.collect(_Running(_job(1, 1.0), _job(2, 2.0), _job(3, 3.0)), None, 0.0)
        assert channel.total_calls == 2  # worker-2 and worker-6, not all eight
        assert channel.busy_ms("worker-5") == 0.0
        assert {j: v["work_done"] for j, v in aggregator.latest.items()} == {1: 1.0, 2: 2.0, 3: 3.0}
        assert aggregator.pull_rounds == 1
        aggregator.collect(_Running(), None, 300.0)  # nothing runs: nothing is pulled
        assert channel.total_calls == 2
        assert aggregator.pull_rounds == 2

    def test_worker_registered_mid_run_is_pulled_once_it_hosts_a_reporting_job(self):
        manager, _workers, channel, aggregator = metric_setup(num_nodes=2)
        manager.register_worker(WorkerManager(node_id=9, channel=channel))
        aggregator.collect(_Running(), None, 0.0)
        assert channel.busy_ms("worker-9") == 0.0
        manager.grant(7, [9])
        aggregator.collect(_Running(_job(7, 5.0)), None, 300.0)
        assert aggregator.latest_for(7) == {"work_done": 5.0}

    def test_deregistered_worker_takes_its_unpulled_entries_with_it(self):
        manager, workers, _channel, aggregator = metric_setup(num_nodes=2)
        manager.grant(7, [1])
        workers[1].push_metrics(7, {"work_done": 5.0})  # written, never pulled
        manager.deregister_worker(1)
        aggregator.collect(_Running(_job(7, 6.0)), None, 0.0)  # reporting worker gone
        assert aggregator.latest == {}

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
        pushed, pulled, decreased = {}, {}, []

        def record_pushes(job_state, cluster_state):
            for job in job_state.running_jobs():
                pushed[job.job_id] = job.work_done

        def check_pulls(job_state, cluster_state):
            for job_id, values in aggregator.latest.items():
                if values["work_done"] < pulled.get(job_id, 0.0):
                    decreased.append(job_id)
                pulled[job_id] = values["work_done"]

        aggregator = spy_on_collect(scheduler, record_pushes, check_pulls)
        scheduler.run()
        assert len(scheduler.lease_latencies_ms()) > 100  # contended: many migrations
        assert decreased == []
        assert len(pushed) == 800
        stale = [j for j, value in pushed.items() if aggregator.latest[j]["work_done"] != value]
        assert stale == []

    @pytest.mark.parametrize("policy", ["tiresias", "pollux"])
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_lease_assignment_names_the_nodes_of_every_running_job(self, scenario, policy):
        # The aggregator takes a job's reporting worker from its lease
        # assignment instead of rebuilding ``nodes_for_job`` per job per
        # round; that is only sound while the two agree at collect time.
        scheduler = RunSpec(
            mode="runtime", policy=policy, scenario=scenario, scenario_smoke=True
        ).build()
        assignments = scheduler.lease_manager.assignments
        checked, mismatches = 0, []

        def compare(job_state, cluster_state):
            nonlocal checked
            for job in job_state.running_jobs():
                checked += 1
                assignment = assignments.get(job.job_id)
                nodes = cluster_state.nodes_for_job(job.job_id)
                if assignment is None or assignment.node_ids != nodes:
                    mismatches.append((job.job_id, assignment, nodes))

        spy_on_collect(scheduler, before=compare)
        scheduler.run()
        assert checked > 1000
        assert mismatches == []

    @pytest.mark.parametrize("scenario", ["scale-cycle", "chaos"])
    def test_stepping_run_pulls_the_same_deltas_as_the_default_run(self, scenario):
        spec = RunSpec(mode="runtime", policy="tiresias", scenario=scenario)
        default, stepping = spec.build(), spec.build(fast_forward=False)
        default.run()
        stepping.run()
        if scenario == "scale-cycle":  # workers join and leave mid-run
            assert len(default.lease_manager.membership_log) > 8
        assert default.worker_metrics.latest == stepping.worker_metrics.latest
        assert default.worker_metrics.pull_rounds == stepping.worker_metrics.pull_rounds
        assert default.channel.lifetime_calls == stepping.channel.lifetime_calls

    def test_control_traffic_of_a_seeded_run_is_pinned(self):
        # Counted work, not wall time: 455 lease messages plus one pull per
        # reporting worker per round.  Polling all 8 workers every round
        # reads 455 + 8 x 730 = 6 295.
        scheduler = RunSpec(
            mode="runtime", policy="tiresias", seed=11, num_jobs=40, jobs_per_hour=12.0
        ).build()
        result = scheduler.run()
        assert result.completion_fraction() == 1.0
        assert scheduler.worker_metrics.pull_rounds == result.rounds == 730
        assert scheduler.channel.lifetime_calls == 3071


class TestFidelityRunner:
    def test_fig18_deviation_is_small(self):
        from repro.experiments.fig18_fidelity import run_fig18

        table = run_fig18(policies=("fifo", "tiresias"), num_jobs=12, num_nodes=4)
        assert len(table.rows) == 2
        for row in table.rows:
            # The deployment path with cluster jitter must track plain
            # simulation to within a few per cent (the Fig. 18 claim).
            assert row["avg_jct_deviation"] < 0.10


class TestMembershipSyncManager:
    def test_unmigrated_inner_manager_disables_event_skipping(self):
        class LegacyManager(ClusterManager):
            def update(self, cluster_state, current_time):
                return []

        channel = InMemoryRpcChannel()
        lease = OptimisticLeaseManager([WorkerManager(node_id=0, channel=channel)], channel)
        sync = MembershipSyncManager(LegacyManager(), lease)
        assert sync.next_event_time(123.0) == 123.0

    def test_timeline_inner_manager_keeps_event_bound(self):
        compiled = churn_scenario()
        channel = InMemoryRpcChannel()
        lease = OptimisticLeaseManager([WorkerManager(node_id=0, channel=channel)], channel)
        sync = MembershipSyncManager(compiled.make_cluster_manager(), lease)
        assert sync.next_event_time(0.0) == 3600.0
