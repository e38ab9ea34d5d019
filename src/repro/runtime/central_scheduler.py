"""The CentralScheduler: the deployment-path counterpart of the Simulator loop.

The scheduling loop and all policy modules are exactly the ones used in
simulation; what changes is the backend (as the paper emphasises, only the job
launch and preemption modules differ).  Here launches and preemptions are
dispatched over the in-memory RPC channel to the per-node WorkerManagers, and
job leases are managed through either the central or the optimistic lease
protocol.  Execution itself is still advanced by the shared execution model
(optionally with the cluster overhead model that adds real-run jitter), which
is what the fidelity experiment (Fig. 18) compares against plain simulation.

Three pieces tie the lease lifecycle and cluster dynamics together:

* :class:`DeploymentBloxManager` -- the loop's prune step releases every
  finished job's lease and clears its worker-local state
  (``WorkerManager.job_finished``), so completion -- not just preemption --
  retires leases;
* :class:`MembershipSyncManager` -- wraps any
  :class:`~repro.core.abstractions.ClusterManager` (e.g. a compiled scenario
  timeline) and reconciles the WorkerManager registry after every membership
  update, so scale-out registers fresh workers and scale-in deregisters dead
  ones instead of the first ``ScaleOut`` raising ``LeaseError``;
* :class:`~repro.runtime.metrics.WorkerMetricsAggregator` -- wires the
  worker-side metric stores (``push_metrics``/``pull_metrics`` deltas) into the
  shared :class:`~repro.core.abstractions.MetricCollector` abstraction.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.abstractions import (
    AdmissionPolicy,
    ClusterManager,
    MetricCollector,
    PlacementPolicy,
    SchedulingPolicy,
)
from repro.core.blox_manager import BloxManager
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.core.mechanisms import SimulatedLauncher, SimulatedPreemption
from repro.runtime.lease import (
    CentralLeaseManager,
    OptimisticLeaseManager,
    _LeaseManagerBase,
)
from repro.metrics.summary import FaultStats
from repro.runtime.metrics import WorkerMetricsAggregator
from repro.runtime.rpc import FaultPlan, InMemoryRpcChannel, RetryPolicy, RpcCostModel
from repro.runtime.worker_manager import WorkerManager
from repro.simulator.engine import SimulationResult, Simulator
from repro.simulator.execution import ExecutionModel
from repro.simulator.overheads import ClusterOverheadModel, OverheadModel

if TYPE_CHECKING:  # annotation only: the caller hands the recorder in
    from repro.telemetry.recorder import TraceRecorder


class RpcLauncher(SimulatedLauncher):
    """Launch mechanism that instructs WorkerManagers before updating shared state."""

    name = "rpc-launch"

    def __init__(self, overheads, lease_manager, cluster_state: ClusterState) -> None:
        super().__init__(overheads)
        self.lease_manager = lease_manager
        self._cluster_state = cluster_state

    def launch(self, job, gpu_ids, cluster_state, current_time) -> None:
        node_ids = sorted({cluster_state.gpu(g).node_id for g in gpu_ids})
        self.lease_manager.grant(job.job_id, node_ids)
        super().launch(job, gpu_ids, cluster_state, current_time)


class RpcPreemption(SimulatedPreemption):
    """Preemption mechanism that revokes leases via the lease protocol."""

    name = "rpc-preemption"

    def __init__(self, overheads, lease_manager) -> None:
        super().__init__(overheads)
        self.lease_manager = lease_manager
        self.lease_round_latencies_ms: List[float] = []

    def preempt(self, job, cluster_state, current_time) -> None:
        latency = self.lease_manager.renewal_round([job.job_id])
        self.lease_round_latencies_ms.append(latency)
        super().preempt(job, cluster_state, current_time)


class DeploymentBloxManager(BloxManager):
    """BloxManager whose prune step retires finished jobs' leases.

    Every path through the engine -- full rounds, light fast-forward rounds,
    steady strides and the gang chain -- prunes through this method, so a
    completed job always releases its lease and clears worker-local state in
    the same round it frees its GPUs.
    """

    def __init__(self, *args, lease_manager: Optional[_LeaseManagerBase] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if lease_manager is None:
            raise ConfigurationError("DeploymentBloxManager needs a lease_manager")
        self.lease_manager = lease_manager

    def prune_completed_jobs(
        self, cluster_state: ClusterState, job_state: JobState
    ) -> List[Job]:
        finished = super().prune_completed_jobs(cluster_state, job_state)
        for job in finished:
            self.lease_manager.complete(job.job_id)
        return finished


class MembershipSyncManager(ClusterManager):
    """Wraps a ClusterManager and keeps the worker registry membership-true.

    After the inner manager applies its events (failures, recoveries,
    scale-out/in, upgrades), the lease manager's registry is reconciled with
    the cluster's node set.  ``next_event_time`` delegates, so scenario
    timelines keep fast-forward active through the deployment path; an inner
    manager that overrides ``update`` without ``next_event_time`` (the
    pre-migration contract) gets skipping disabled explicitly, mirroring the
    engine's own migration check, which this wrapper would otherwise mask.
    """

    name = "membership-sync"

    def __init__(
        self,
        inner: Optional[ClusterManager],
        lease_manager: _LeaseManagerBase,
    ) -> None:
        self.inner = inner if inner is not None else ClusterManager()
        self.lease_manager = lease_manager
        inner_cls = type(self.inner)
        self._inner_unmigrated = (
            inner_cls.update is not ClusterManager.update
            and inner_cls.next_event_time is ClusterManager.next_event_time
        )

    def update(self, cluster_state: ClusterState, current_time: float) -> List[int]:
        affected = self.inner.update(cluster_state, current_time)
        self.lease_manager.sync_membership(cluster_state)
        return affected

    def drain_applied(self):
        # Without this delegation the timeline's firings would be invisible
        # to telemetry on the deployment path.
        return self.inner.drain_applied()

    def next_event_time(self, current_time: float) -> Optional[float]:
        if self._inner_unmigrated:
            return current_time
        return self.inner.next_event_time(current_time)


class CentralScheduler:
    """Runs the Blox loop against WorkerManagers over RPC ("cluster mode")."""

    def __init__(
        self,
        cluster_state: ClusterState,
        jobs: Sequence[Job],
        scheduling_policy: SchedulingPolicy,
        placement_policy: Optional[PlacementPolicy] = None,
        admission_policy: Optional[AdmissionPolicy] = None,
        round_duration: float = 300.0,
        lease_protocol: str = "optimistic",
        overhead_model: Optional[OverheadModel] = None,
        metric_collectors: Sequence[MetricCollector] = (),
        rpc_cost_model: RpcCostModel = RpcCostModel(),
        tracked_job_ids: Optional[Sequence[int]] = None,
        max_rounds: int = 200_000,
        cluster_manager: Optional[ClusterManager] = None,
        fast_forward: bool = True,
        collect_worker_metrics: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        if lease_protocol not in ("central", "optimistic"):
            raise ConfigurationError(f"unknown lease protocol {lease_protocol!r}")
        self.cluster_state = cluster_state
        # An armed fault plan turns every lease RPC into an attempt loop with
        # retry/backoff and idempotency-token dedup; the schedule must stay
        # bit-identical to a fault-free run (only latencies and fault counters
        # differ), which the chaos bench gates.
        self.channel = InMemoryRpcChannel(rpc_cost_model, fault_plan, retry_policy)
        initial_workers = [
            WorkerManager(node_id=node_id, channel=self.channel)
            for node_id in sorted(cluster_state.nodes)
        ]
        manager_cls = CentralLeaseManager if lease_protocol == "central" else OptimisticLeaseManager
        self.lease_manager = manager_cls(initial_workers, self.channel)

        # Cluster runs pay real launch/preemption overheads plus jitter by
        # default; fidelity/parity experiments pass a deterministic model.
        overheads = overhead_model if overhead_model is not None else ClusterOverheadModel()
        execution = ExecutionModel(overhead_model=overheads)
        launcher = RpcLauncher(overheads, self.lease_manager, cluster_state)
        self.preemptor = RpcPreemption(overheads, self.lease_manager)

        collectors = list(metric_collectors)
        self.worker_metrics: Optional[WorkerMetricsAggregator] = None
        if collect_worker_metrics:
            self.worker_metrics = WorkerMetricsAggregator(self.channel, self.lease_manager)
            collectors.append(self.worker_metrics)

        self._simulator = Simulator(
            cluster_state=cluster_state,
            jobs=jobs,
            scheduling_policy=scheduling_policy,
            placement_policy=placement_policy,
            admission_policy=admission_policy,
            round_duration=round_duration,
            execution_model=execution,
            metric_collectors=collectors,
            tracked_job_ids=tracked_job_ids,
            max_rounds=max_rounds,
            cluster_manager=MembershipSyncManager(cluster_manager, self.lease_manager),
            fast_forward=fast_forward,
            manager_factory=partial(
                DeploymentBloxManager, lease_manager=self.lease_manager
            ),
            recorder=recorder,
        )
        # Swap in the RPC-backed launch/preemption mechanisms: the two modules
        # that differ between simulation and deployment.
        self._simulator.manager.launcher = launcher
        self._simulator.manager.preemptor = self.preemptor
        # Telemetry: the lease protocol and the RPC channel share the
        # simulator's recorder (one source, one monotonic sequence) and read
        # the loop's clock -- hooks only observe, so traced deployment runs
        # keep schedule parity with untraced ones.
        if recorder is not None:
            clock = lambda: self._simulator.manager.current_time  # noqa: E731
            self.lease_manager.set_telemetry(recorder, clock)
            self.channel.set_telemetry(recorder, clock)

    def run(self) -> SimulationResult:
        """Execute the workload through the deployment path."""
        return self._simulator.run()

    @property
    def manager(self) -> BloxManager:
        return self._simulator.manager

    @property
    def workers(self) -> Dict[int, WorkerManager]:
        """Live node-id -> WorkerManager registry (membership-synced)."""
        return self.lease_manager.workers

    def lease_latencies_ms(self) -> List[float]:
        """Per-preemption lease-round latencies observed during the run."""
        return list(self.preemptor.lease_round_latencies_ms)

    def fault_stats(self) -> FaultStats:
        """Fault-injection and recovery counters from the RPC channel."""
        return self.channel.fault_stats()

    def leaked_leases(self) -> int:
        """Lease-protocol state still held; must be zero after a drained run."""
        return self.lease_manager.leaked_leases()
