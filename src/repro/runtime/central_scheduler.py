"""The CentralScheduler: the Simulator loop on the deployment path.

:class:`CentralScheduler` *is* a :class:`~repro.simulator.engine.Simulator`:
the scheduling loop and all policy modules are exactly the ones used in
simulation, and every loop keyword is the Simulator's; what changes is the
backend (as the paper emphasises, only the job launch and preemption modules
differ).  Here launches and preemptions are
dispatched over the in-memory RPC channel to the per-node WorkerManagers, and
job leases are managed through the optimistic lease protocol (Fig. 19 compares
it with the central one on :func:`~repro.runtime.lease.build_lease_setup`).
Execution itself is still advanced by the shared execution model
(the fidelity experiment, Fig. 18, hands in the cluster overhead model that
adds real-run jitter and compares against plain simulation).

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
from typing import Dict, List, Optional

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
from repro.simulator.engine import Simulator


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
        # The RPC-backed launch and preemption mechanisms -- the two modules
        # that differ between simulation and deployment -- pay the execution
        # model's overheads, so one overhead model serves all three.
        overheads = self.execution.overheads
        self.launcher = RpcLauncher(overheads, lease_manager)
        self.preemptor = RpcPreemption(overheads, lease_manager)
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


class CentralScheduler(Simulator):
    """The Blox loop against WorkerManagers over RPC ("cluster mode").

    A :class:`~repro.simulator.engine.Simulator` whose ``BloxManager``
    launches and preempts over RPC: every other keyword is the Simulator's.
    """

    def __init__(
        self,
        cluster_state: ClusterState,
        *args,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        **kwargs,
    ) -> None:
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
        super().__init__(
            cluster_state,
            *args,
            manager_factory=partial(DeploymentBloxManager, lease_manager=self.lease_manager),
            **kwargs,
        )
        self.worker_metrics = WorkerMetricsAggregator(self.channel, self.lease_manager)
        self.job_state.add_observer(self.worker_metrics)
        # Telemetry: the lease protocol and the RPC channel share the
        # loop's recorder (one source, one monotonic sequence) and read its
        # clock -- hooks only observe, so traced deployment runs keep
        # schedule parity with untraced ones.
        if self._recorder is not None:
            clock = lambda: self.manager.current_time  # noqa: E731
            self.lease_manager.set_telemetry(self._recorder, clock)
            self.channel.set_telemetry(self._recorder, clock)

    @property
    def workers(self) -> Dict[int, WorkerManager]:
        """Live node-id -> WorkerManager registry (membership-synced)."""
        return self.lease_manager.workers

    def lease_latencies_ms(self) -> List[float]:
        """Per-preemption lease-round latencies observed during the run."""
        return list(self.manager.preemptor.lease_round_latencies_ms)

    def fault_stats(self) -> FaultStats:
        """Fault-injection and recovery counters from the RPC channel."""
        return self.channel.fault_stats()

    def leaked_leases(self) -> int:
        """Lease-protocol state still held; must be zero after a drained run."""
        return self.lease_manager.leaked_leases()
