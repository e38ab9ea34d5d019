"""The CentralScheduler: the deployment-path counterpart of the Simulator loop.

The scheduling loop and all policy modules are exactly the ones used in
simulation; what changes is the backend (as the paper emphasises, only the job
launch and preemption modules differ).  Here launches and preemptions are
dispatched over the in-memory RPC channel to the per-node WorkerManagers, and
job leases are managed through the optimistic lease protocol (Fig. 19 compares
it with the central one on :func:`~repro.runtime.lease.build_lease_setup`).
Execution itself is still advanced by the shared execution model
(optionally with the cluster overhead model that adds real-run jitter), which
is what the fidelity experiment (Fig. 18) compares against plain simulation.

Two pieces tie the lease lifecycle and cluster dynamics together:

* :class:`DeploymentBloxManager` -- the loop's prune step releases every
  finished job's lease and clears its worker-local state
  (``WorkerManager.job_finished``), so completion -- not just preemption --
  retires leases; and its ``update_cluster`` reconciles the WorkerManager
  registry after every membership update of any
  :class:`~repro.core.abstractions.ClusterManager` (e.g. a compiled scenario
  timeline, which the engine sees unwrapped), so scale-out registers fresh
  workers and scale-in deregisters dead ones instead of the first
  ``ScaleOut`` raising ``LeaseError``;
* :class:`~repro.runtime.metrics.WorkerMetricsAggregator` -- a job status
  observer, not a per-round collector: a job reports to its worker, which is
  pulled (a ``pull_metrics`` delta), when it leaves RUNNING, so the
  deployment path defers progress and skips rounds as simulation does.
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
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.core.mechanisms import SimulatedLauncher, SimulatedPreemption
from repro.runtime.lease import OptimisticLeaseManager, _LeaseManagerBase
from repro.metrics.summary import FaultStats
from repro.runtime.metrics import WorkerMetricsAggregator
from repro.runtime.rpc import FaultPlan, InMemoryRpcChannel, RetryPolicy
from repro.runtime.worker_manager import WorkerManager
from repro.simulator.engine import SimulationResult, Simulator
from repro.simulator.overheads import ClusterOverheadModel, OverheadModel

if TYPE_CHECKING:  # annotation only: the caller hands the recorder in
    from repro.telemetry.recorder import TraceRecorder


class RpcLauncher(SimulatedLauncher):
    """Launch mechanism that grants the lease on the allocation's nodes before RUNNING."""

    name = "rpc-launch"

    def __init__(self, overheads, lease_manager) -> None:
        super().__init__(overheads)
        self.lease_manager = lease_manager

    def allocated(self, job, cluster_state) -> None:
        self.lease_manager.grant(job.job_id, cluster_state.allocation(job.job_id).nodes)


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
    """BloxManager that keeps the lease layer in step with the loop.

    * Its cluster update reconciles the lease manager's worker registry with
      the cluster's node set after the cluster manager applied its events
      (failures, recoveries, scale-out/in, upgrades), before the engine
      evicts the affected jobs, if ``membership_version`` moved.
    * Its prune step retires finished jobs' leases.  Every path through the
      engine -- full rounds and skips -- prunes through
      this method, so a completed job always releases its lease and clears
      worker-local state in the same round it frees its GPUs.
    """

    def __init__(self, *args, lease_manager: _LeaseManagerBase, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.lease_manager = lease_manager
        self._synced_version: Optional[int] = None  # of the last reconciliation

    def update_cluster(self, cluster_state: ClusterState) -> List[int]:
        affected = super().update_cluster(cluster_state)
        if cluster_state.membership_version != self._synced_version:
            self.lease_manager.sync_membership(cluster_state)
            self._synced_version = cluster_state.membership_version
        return affected

    def prune_completed_jobs(
        self, cluster_state: ClusterState, job_state: JobState
    ) -> List[Job]:
        finished = super().prune_completed_jobs(cluster_state, job_state)
        for job in finished:
            self.lease_manager.complete(job.job_id)
        return finished


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
        overhead_model: Optional[OverheadModel] = None,
        metric_collectors: Sequence[MetricCollector] = (),
        tracked_job_ids: Optional[Sequence[int]] = None,
        cluster_manager: Optional[ClusterManager] = None,
        fast_forward: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.cluster_state = cluster_state
        # An armed fault plan turns every lease RPC into an attempt loop with
        # retry/backoff and idempotency-token dedup; the schedule must stay
        # bit-identical to a fault-free run (only latencies and fault counters
        # differ), which the chaos bench gates.
        self.channel = InMemoryRpcChannel(fault_plan, retry_policy)
        initial_workers = [
            WorkerManager(node_id=node_id, channel=self.channel)
            for node_id in sorted(cluster_state.nodes)
        ]
        self.lease_manager = OptimisticLeaseManager(initial_workers, self.channel)

        # Cluster runs pay real launch/preemption overheads plus jitter by
        # default; fidelity/parity experiments pass a deterministic model.
        overheads = overhead_model if overhead_model is not None else ClusterOverheadModel()
        self.preemptor = RpcPreemption(overheads, self.lease_manager)

        self._simulator = Simulator(
            cluster_state=cluster_state,
            jobs=jobs,
            scheduling_policy=scheduling_policy,
            placement_policy=placement_policy,
            admission_policy=admission_policy,
            round_duration=round_duration,
            overhead_model=overheads,
            metric_collectors=metric_collectors,
            tracked_job_ids=tracked_job_ids,
            cluster_manager=cluster_manager,
            fast_forward=fast_forward,
            # The RPC-backed launch and preemption mechanisms: the two
            # modules that differ between simulation and deployment.
            manager_factory=partial(
                DeploymentBloxManager,
                lease_manager=self.lease_manager,
                launcher=RpcLauncher(overheads, self.lease_manager),
                preemptor=self.preemptor,
            ),
            recorder=recorder,
        )
        self.worker_metrics = WorkerMetricsAggregator(self.channel, self.lease_manager)
        self._simulator.job_state.add_observer(self.worker_metrics)
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
