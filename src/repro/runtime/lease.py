"""Lease management protocols: centralised checks vs optimistic renewal (Fig. 19).

Round-based schedulers preempt jobs by revoking a lease.  Two protocols:

* **Central lease renewal** -- every worker of every running job asks the
  CentralScheduler each round whether its lease still holds.  The scheduler
  serialises these requests, so the per-round lease latency grows with the
  number of leased GPUs in the cluster.
* **Optimistic lease renewal** (Blox's contribution) -- leases renew
  automatically; the scheduler contacts exactly **one** worker per *revoked*
  job, and that worker runs the two-phase exit protocol with its peers
  (worker-to-worker propagation of the agreed exit iteration).  The
  scheduler-side cost therefore depends only on the number of revocations,
  never on cluster size or gang width.

Both protocols are implemented over the in-memory RPC channel; their
``renewal_round`` methods return the critical-path latency of one round of
lease traffic in milliseconds (the busiest endpoint -- endpoints proceed in
parallel), which is the quantity Figure 19 plots.

Lease lifecycle: ``grant`` at launch, ``renewal_round`` while running (a
revocation inside it runs the revoke path and releases scheduler-side state),
and ``complete`` when a job finishes -- completion releases the lease *and*
tells every worker of the job to clear its local state
(:meth:`WorkerManager.job_finished`), so finished jobs generate no further
check/renew traffic and leak no worker-side bookkeeping.

Membership is dynamic: :meth:`sync_membership` registers a WorkerManager for
every node that joined the cluster and deregisters managers of nodes that
left, so scenario timelines (scale-out, scale-in, upgrades) never hit an
unknown endpoint.  Revocations tolerate workers that vanished mid-flight
(their node is gone; the lease dies with it).

Fault tolerance: under an armed :class:`~repro.runtime.rpc.FaultPlan` every
lease RPC names its *logical operation* with an idempotency token (unique
across re-grants of a job; a revocation's fan-out derives its peers' tokens
from it), so retry/dedup make grant, renew/revoke, the fan-out and completion
exactly-once: a chaos run's schedule stays bit-identical to a fault-free run,
which ``python -m repro.bench --chaos`` gates with zero
:meth:`_LeaseManagerBase.leaked_leases`.  Without a plan no token is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError, LeaseError
from repro.runtime.rpc import InMemoryRpcChannel
from repro.runtime.worker_manager import WorkerManager
from repro.telemetry.events import EVENT_LEASE

SCHEDULER_ENDPOINT = "central-scheduler"


@dataclass
class LeaseAssignment:
    """One job's lease: the workers (node ids) it runs on."""

    job_id: int
    node_ids: List[int]


class _LeaseManagerBase:
    """Shared bookkeeping for both lease protocols."""

    def __init__(self, workers: Sequence[WorkerManager], channel: InMemoryRpcChannel) -> None:
        if not workers:
            raise ConfigurationError("lease manager needs at least one worker")
        self.channel = channel
        self.workers: Dict[int, WorkerManager] = {w.node_id: w for w in workers}
        self.assignments: Dict[int, LeaseAssignment] = {}
        self.channel.register(SCHEDULER_ENDPOINT, "check_lease", self._handle_check_lease)
        self._active_leases: Dict[int, bool] = {}
        #: Every node that held a lease for the job since it last completed.
        #: A preempted-then-migrated job leaves drain state (revoked lease,
        #: exit iteration) on its former workers; completion must clear those
        #: too, not just the latest assignment.
        self._holders: Dict[int, Set[int]] = {}
        #: Operation counter: a token differs from every earlier one, e.g.
        #: a re-grant's from the job's previous grant.
        self._op_seq = 0
        #: Optional telemetry: (recorder, simulated-time clock).  Set through
        #: :meth:`set_telemetry` (the CentralScheduler wires it); grants,
        #: revocations and completions then stream as ``lease`` events.
        self._telemetry: Optional[tuple] = None

    def set_telemetry(self, recorder, clock) -> None:
        """Stream lease transitions to ``recorder`` stamped by ``clock()``."""
        self._telemetry = (recorder, clock)

    def _emit_lease(self, op: str, job_id: int, **extra) -> None:
        if self._telemetry is None:
            return
        recorder, clock = self._telemetry
        payload = {"op": op, "job_id": job_id}
        payload.update(extra)
        recorder.emit(EVENT_LEASE, clock(), payload)

    def _token(self, op: str, job_id: int) -> Optional[str]:
        """One logical operation's idempotency token; ``None`` if the channel cannot fault."""
        if self.channel.fault_plan is None:
            return None
        self._op_seq += 1
        return f"{op}:{job_id}:{self._op_seq}"

    # -- scheduler-side handlers ----------------------------------------

    def _handle_check_lease(self, payload) -> bool:
        return self._active_leases.get(payload["job_id"], False)

    # -- membership dynamics --------------------------------------------

    def register_worker(self, worker: WorkerManager) -> None:
        """A node joined: route its endpoint and make it grantable."""
        self.workers[worker.node_id] = worker

    def deregister_worker(self, node_id: int) -> None:
        """A node left: drop its endpoint; leases it held die with it."""
        worker = self.workers.pop(node_id, None)
        if worker is None:
            return
        self.channel.unregister_endpoint(worker.endpoint_name)

    def sync_membership(self, cluster_state: ClusterState) -> Tuple[List[int], List[int]]:
        """Reconcile the worker registry with the cluster's current node set.

        Returns ``(added, removed)`` node ids.  Failed-but-present nodes keep
        their workers (the node is still a member; its jobs were evicted by
        the cluster event), only true membership changes register/deregister.
        """
        current = set(cluster_state.nodes)
        added = sorted(current - set(self.workers))
        removed = sorted(set(self.workers) - current)
        for node_id in added:
            self.register_worker(WorkerManager(node_id=node_id, channel=self.channel))
        for node_id in removed:
            self.deregister_worker(node_id)
        return added, removed

    # -- common operations ------------------------------------------------

    def grant(self, job_id: int, node_ids: Iterable[int]) -> None:
        node_ids = list(node_ids)
        for node_id in node_ids:
            if node_id not in self.workers:
                raise LeaseError(f"cannot grant lease on unknown node {node_id}")
            self.channel.call(
                self.workers[node_id].endpoint_name,
                "launch",
                {"job_id": job_id},
                caller=SCHEDULER_ENDPOINT,
                idempotency_token=self._token("launch", job_id),
            )
        self.assignments[job_id] = LeaseAssignment(job_id=job_id, node_ids=node_ids)
        self._active_leases[job_id] = True
        self._holders.setdefault(job_id, set()).update(node_ids)
        self._emit_lease("grant", job_id, nodes=sorted(node_ids))

    def release(self, job_id: int) -> None:
        self.assignments.pop(job_id, None)
        self._active_leases.pop(job_id, None)

    def complete(self, job_id: int) -> None:
        """A job finished: release its lease and clear worker-local state.

        Finished jobs must stop producing check/renew traffic immediately
        (``assignments`` shrinks here, not only on preemption) and must not
        leak lease/iteration/metric entries on their workers -- including
        *former* workers the job was preempted off before migrating.
        """
        for node_id in sorted(self._holders.pop(job_id, ())):
            worker = self.workers.get(node_id)
            if worker is None:
                continue  # the node left; its state is already gone
            self.channel.call(
                worker.endpoint_name,
                "job_finished",
                {"job_id": job_id},
                caller=SCHEDULER_ENDPOINT,
                idempotency_token=self._token("finish", job_id),
            )
        self.release(job_id)
        self._emit_lease("complete", job_id)

    def leaked_leases(self) -> int:
        """Lease-protocol state that should be empty after a drained run.

        Counts scheduler-side active leases and assignments plus every
        worker-local lease/exit-iteration entry.  The chaos bench asserts
        this is zero after a run under injected RPC faults: a lost or
        re-executed message that leaked protocol state shows up here.
        """
        leaked = len(self._active_leases) + len(self.assignments) + len(self._holders)
        for worker in self.workers.values():
            leaked += len(worker.leases) + len(worker.exit_iterations)
        return leaked


class CentralLeaseManager(_LeaseManagerBase):
    """Every worker of every running job checks in with the scheduler each round."""

    name = "central-lease"

    def renewal_round(self, revoked_job_ids: Sequence[int] = ()) -> float:
        """Run one round of lease traffic; returns the critical-path latency (ms)."""
        revoked = set(revoked_job_ids)
        self.channel.reset_accounting()
        for job_id in sorted(revoked):
            if job_id in self._active_leases:
                self._active_leases[job_id] = False
        for assignment in list(self.assignments.values()):
            for node_id in assignment.node_ids:
                worker = self.workers.get(node_id)
                if worker is None:
                    continue  # node left the cluster; nothing to check there
                # The worker asks the central scheduler whether its lease
                # still holds -- this is the serialisation point that makes
                # the central protocol scale with leased GPUs, not with
                # revocations.
                still_valid = self.channel.call(
                    SCHEDULER_ENDPOINT,
                    "check_lease",
                    {"job_id": assignment.job_id},
                    caller=worker.endpoint_name,
                    idempotency_token=self._token("check", assignment.job_id),
                )
                method = "renew_lease" if still_valid else "revoke_lease"
                self.channel.call(
                    worker.endpoint_name,
                    method,
                    {"job_id": assignment.job_id},
                    caller=SCHEDULER_ENDPOINT,
                    idempotency_token=self._token(method, assignment.job_id),
                )
        for job_id in sorted(revoked):
            self.release(job_id)
            self._emit_lease("revoke", job_id, protocol=self.name)
        return self.channel.critical_path_ms()


class OptimisticLeaseManager(_LeaseManagerBase):
    """Leases renew implicitly; only revocations generate traffic."""

    name = "optimistic-lease"

    def renewal_round(self, revoked_job_ids: Sequence[int] = ()) -> float:
        """Run one round of lease traffic; returns the critical-path latency (ms)."""
        self.channel.reset_accounting()
        for job_id in revoked_job_ids:
            assignment = self.assignments.get(job_id)
            if assignment is None:
                continue  # completed (or already revoked) between decision and round
            self._active_leases[job_id] = False
            # Two-phase exit: the scheduler contacts a single worker; that
            # worker fixes the exit iteration and propagates it to its peers
            # worker-to-worker (peer fan-out bills the worker, never the
            # scheduler endpoint).  Workers whose node left are skipped; if
            # every worker is gone the lease simply dies with the nodes.
            available = [n for n in assignment.node_ids if n in self.workers]
            if available:
                first, peers = available[0], available[1:]
                # The worker derives its peers' tokens from this revocation's.
                token = self._token("revoke", job_id)
                self.channel.call(
                    self.workers[first].endpoint_name,
                    "revoke_lease",
                    {
                        "job_id": job_id,
                        "peers": [self.workers[p].endpoint_name for p in peers],
                        "token": token,
                    },
                    caller=SCHEDULER_ENDPOINT,
                    idempotency_token=token,
                )
            self.release(job_id)
            self._emit_lease("revoke", job_id, protocol=self.name)
        return self.channel.critical_path_ms()


def build_lease_setup(
    num_nodes: int,
    gpus_per_node: int = 4,
    jobs_per_gpu: float = 1.0,
    protocol: str = "optimistic",
):
    """Construct a lease manager with one single-GPU job per GPU (Fig. 19 setup).

    Returns ``(manager, workers, channel)``.  ``protocol`` is ``"central"`` or
    ``"optimistic"``.
    """
    if protocol not in ("central", "optimistic"):
        raise ConfigurationError(f"unknown lease protocol {protocol!r}")
    channel = InMemoryRpcChannel()
    workers = [WorkerManager(node_id=i, channel=channel) for i in range(num_nodes)]
    manager_cls = CentralLeaseManager if protocol == "central" else OptimisticLeaseManager
    manager = manager_cls(workers, channel)
    total_jobs = int(num_nodes * gpus_per_node * jobs_per_gpu)
    for job_id in range(total_jobs):
        node_id = (job_id // gpus_per_node) % num_nodes
        manager.grant(job_id, [node_id])
    return manager, workers, channel
