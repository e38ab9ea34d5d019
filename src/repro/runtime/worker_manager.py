"""The per-node WorkerManager.

A WorkerManager runs on every server: it executes launch/preempt commands from
the CentralScheduler, stores job leases locally so the client library can check
them without a round trip to the scheduler (the optimistic scheme), and acts as
the local metric store that applications push arbitrary key-value metrics into.

Revocation is two-phase (the optimistic protocol): the scheduler contacts
*one* worker of a revoked job; that worker fixes the exit iteration (the
payload's, or one past the job's last reported iteration) and propagates it
worker-to-worker to the peers named in the payload, so every worker of a
distributed job checkpoints at the same boundary without the scheduler ever
fanning out itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.runtime.rpc import InMemoryRpcChannel


@dataclass
class WorkerManager:
    """Node-local agent: lease store, metric store, launch/preempt executor."""

    node_id: int
    channel: Optional[InMemoryRpcChannel] = None
    leases: Dict[int, bool] = field(init=False, default_factory=dict)
    exit_iterations: Dict[int, int] = field(init=False, default_factory=dict)
    #: Last iteration each local job reported (the client library's data
    #: loader records progress here); used to pick a concrete exit iteration
    #: when a revocation arrives without one.
    job_iterations: Dict[int, int] = field(init=False, default_factory=dict)
    metrics: Dict[int, Dict[str, object]] = field(init=False, default_factory=dict)
    endpoint_name: str = field(init=False)
    #: Jobs whose metric entry was written since the last pull, in write
    #: order: ``pull_metrics`` ships exactly these and forgets them.
    _unpulled: Dict[int, None] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.endpoint_name = f"worker-{self.node_id}"
        if self.channel is not None:
            endpoint = self.endpoint_name
            self.channel.register(endpoint, "launch", self._handle_launch)
            self.channel.register(endpoint, "revoke_lease", self._handle_revoke)
            self.channel.register(endpoint, "renew_lease", self._handle_renew)
            self.channel.register(endpoint, "job_finished", self._handle_job_finished)
            self.channel.register(endpoint, "push_metric", self._handle_push_metric)
            self.channel.register(endpoint, "pull_metrics", self._handle_pull_metrics)

    # ------------------------------------------------------------------
    # RPC handlers (the channel calls these); they can also be used directly.
    # ------------------------------------------------------------------

    def _handle_launch(self, payload) -> bool:
        job_id = payload["job_id"]
        self.leases[job_id] = True
        self.exit_iterations.pop(job_id, None)
        return True

    def _handle_revoke(self, payload) -> bool:
        """Revoke a lease; idempotent, and phase two of the optimistic exit.

        A job may complete (and clear its worker state) between the
        scheduler's decision and the revoke's arrival, or a second revoke may
        arrive for a lease already revoked -- both are benign no-ops, not
        errors: the revocation's goal (the job no longer runs here) already
        holds.  The stored exit iteration only ever moves *forward*
        (monotonic max): a duplicated or re-ordered revoke -- injected RPC
        faults can deliver phase-two messages more than once -- must never
        drag the boundary below an iteration a peer may already have passed.
        Returns whether the revoke changed anything.
        """
        job_id = payload["job_id"]
        if job_id not in self.leases:
            return False
        already_revoked = not self.leases[job_id]
        self.leases[job_id] = False
        exit_iteration = payload.get("exit_iteration")
        if exit_iteration is None:
            # Phase one lands here: this worker fixes the concrete boundary.
            exit_iteration = self.job_iterations.get(job_id, 0) + 1
        current = self.exit_iterations.get(job_id)
        if current is None or int(exit_iteration) > current:
            self.exit_iterations[job_id] = int(exit_iteration)
        if self.channel is not None:
            # Phase two: propagate the *fixed* exit iteration to the peers the
            # scheduler named, billed to this worker.  Peer tokens derive from
            # the scheduler's revoke token: a retried or duplicated fan-out of
            # one revocation dedups, the gang's next revocation does not.
            agreed = self.exit_iterations[job_id]
            token = payload.get("token")
            for peer_endpoint in payload.get("peers", ()):
                self.channel.call(
                    peer_endpoint,
                    "revoke_lease",
                    {"job_id": job_id, "exit_iteration": agreed},
                    idempotency_token=None if token is None else f"{token}:{peer_endpoint}",
                )
        return not already_revoked

    def _handle_renew(self, payload) -> bool:
        job_id = payload["job_id"]
        self.leases[job_id] = True
        return True

    def _handle_job_finished(self, payload) -> bool:
        self.job_finished(payload["job_id"])
        return True

    def _handle_push_metric(self, payload) -> bool:
        self.push_metric(payload["job_id"], payload["key"], payload["value"])
        return True

    def _handle_pull_metrics(self, payload) -> Dict[int, Dict[str, object]]:
        return self.pull_metrics()

    # ------------------------------------------------------------------
    # Local API used by the client library (no RPC: the point of optimism)
    # ------------------------------------------------------------------

    def lease_valid(self, job_id: int) -> bool:
        """Whether the job may start another iteration (local lookup, no RPC)."""
        return self.leases.get(job_id, False)

    def exit_iteration_for(self, job_id: int) -> Optional[int]:
        return self.exit_iterations.get(job_id)

    def record_iteration(self, job_id: int, iteration: int) -> None:
        """Data-loader progress report (local, per iteration boundary)."""
        self.job_iterations[job_id] = iteration

    def push_metric(self, job_id: int, key: str, value: object) -> None:
        self.push_metrics(job_id, {key: value})

    def push_metrics(self, job_id: int, values: Mapping[str, object]) -> None:
        """One batched local write of a job's metrics; marks the job unpulled."""
        entry = self.metrics.get(job_id)
        if entry is None:
            entry = self.metrics[job_id] = {}
        entry.update(values)
        self._unpulled[job_id] = None

    def pull_metrics(self) -> Dict[int, Dict[str, object]]:
        """The delta: copies of the entries written since the last pull.

        Pulling clears the marks, so an entry travels once per write burst --
        a preempted job's entry stays in the store until ``job_finished`` but
        is never shipped (or merged over fresher values) again.  The copies
        are the caller's: neither the store nor a later write shows through.
        """
        unpulled, self._unpulled = self._unpulled, {}
        metrics = self.metrics
        return {job_id: dict(metrics[job_id]) for job_id in unpulled}

    def job_finished(self, job_id: int) -> None:
        """Clear all local state for a job that exited."""
        self.leases.pop(job_id, None)
        self.exit_iterations.pop(job_id, None)
        self.job_iterations.pop(job_id, None)
        self.metrics.pop(job_id, None)
        self._unpulled.pop(job_id, None)
