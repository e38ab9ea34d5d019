"""BloxClientLibrary: the pieces linked into each training job.

Two components, as in the paper:

* :class:`BloxDataLoader` wraps the framework data loader.  At every iteration
  boundary it checks the job's lease with the *local* WorkerManager; when the
  lease has been revoked it takes a consistent checkpoint and stops.  For
  distributed jobs the two-phase exit protocol is implemented here: the worker
  that receives the revocation picks the exit iteration (current + 1) and
  propagates it to its peers, so all workers checkpoint at the same boundary
  and no deadlock or inconsistent checkpoint can occur.
* :class:`WorkerMetricsCollector` pushes arbitrary application metrics (loss,
  gradient norms, throughput, ...) to the WorkerManager's metric store, from
  which the CentralScheduler's metric collection abstraction aggregates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.exceptions import LeaseError
from repro.runtime.worker_manager import WorkerManager


@dataclass
class WorkerMetricsCollector:
    """Push-style metric reporting from a training job to its WorkerManager."""

    job_id: int
    worker: WorkerManager

    def push(self, key: str, value: object) -> None:
        """Record a single application metric (any JSON-serialisable value)."""
        self.worker.push_metric(self.job_id, key, value)

    def push_many(self, metrics: Dict[str, object]) -> None:
        self.worker.push_metrics(self.job_id, metrics)


@dataclass
class CheckpointRecord:
    """What the data loader saved when it stopped (iteration + marker)."""

    job_id: int
    iteration: int
    consistent: bool


class BloxDataLoader:
    """Iteration-granularity lease checking and consistent-checkpoint exit.

    The loader is modelled as an iterator over iteration indices.  Real jobs
    wrap their PyTorch/TensorFlow loader; the control flow (lease check per
    iteration, coordinated exit for distributed jobs) is identical.
    """

    def __init__(
        self,
        job_id: int,
        worker: WorkerManager,
        total_iterations: int,
        peers: Sequence["BloxDataLoader"] = (),
    ) -> None:
        self.job_id = job_id
        self.worker = worker
        self.total_iterations = total_iterations
        self.peers: List[BloxDataLoader] = list(peers)
        self.current_iteration = 0
        self.exit_iteration: Optional[int] = None
        self.checkpoint: Optional[CheckpointRecord] = None

    # ------------------------------------------------------------------
    # Distributed coordination (two-phase lease expiration)
    # ------------------------------------------------------------------

    def attach_peers(self, peers: Sequence["BloxDataLoader"]) -> None:
        """Connect the workers of one distributed job to each other."""
        self.peers = [p for p in peers if p is not self]

    def _propagate_exit(self, exit_iteration: int) -> None:
        """Phase two: tell every peer the agreed exit iteration.

        The boundary only ever moves *forward*: a stale propagation (e.g. a
        duplicated revocation replayed by the fault-injecting channel) must
        never lower an exit iteration a peer may already have committed to,
        or workers would checkpoint at different boundaries.
        """
        if self.exit_iteration is None or exit_iteration > self.exit_iteration:
            self.exit_iteration = exit_iteration
        for peer in self.peers:
            if peer.exit_iteration is None or exit_iteration > peer.exit_iteration:
                peer.exit_iteration = exit_iteration
            recorded = peer.worker.exit_iterations.get(peer.job_id)
            if recorded is None or exit_iteration > recorded:
                peer.worker.exit_iterations[peer.job_id] = exit_iteration

    def _choose_exit_iteration(self) -> int:
        """Phase one: fix a boundary every worker can still reach.

        A peer may have raced one or more iterations ahead by the time the
        revocation lands here, so the agreed boundary is one past the
        *furthest* worker -- each worker then runs up to exactly that
        iteration and checkpoints at the same consistent state.
        """
        furthest = max(
            (peer.current_iteration for peer in self.peers),
            default=self.current_iteration,
        )
        return max(self.current_iteration, furthest) + 1

    def _check_lease(self) -> bool:
        """Return True when the job may run the next iteration."""
        if self.exit_iteration is not None:
            return self.current_iteration < self.exit_iteration
        if self.worker.lease_valid(self.job_id):
            return True
        # Lease revoked at this worker.  The revocation may already have
        # fixed a boundary (worker-to-worker phase two), but the worker only
        # knows *its* job's progress -- a peer may have raced past that
        # boundary by the time any loader observes the revocation.  The fixed
        # value is therefore a floor: the first loader to notice raises it to
        # one past the furthest peer if needed and propagates the result, so
        # every worker checkpoints at the same reachable iteration.
        pending = self.worker.exit_iteration_for(self.job_id)
        exit_iteration = self._choose_exit_iteration()
        if pending is not None:
            exit_iteration = max(pending, exit_iteration)
        self._propagate_exit(exit_iteration)
        return self.current_iteration < exit_iteration

    def _take_checkpoint(self) -> None:
        self.checkpoint = CheckpointRecord(
            job_id=self.job_id, iteration=self.current_iteration, consistent=True
        )

    # ------------------------------------------------------------------
    # Iteration protocol
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterable[int]:
        return self

    def __next__(self) -> int:
        if self.current_iteration >= self.total_iterations:
            self._take_checkpoint()
            self.worker.job_finished(self.job_id)
            raise StopIteration
        if not self._check_lease():
            self._take_checkpoint()
            raise StopIteration
        iteration = self.current_iteration
        self.current_iteration += 1
        # Report progress to the node-local WorkerManager (no RPC) so a
        # revocation arriving at this worker can fix a reachable exit
        # iteration even before any loader observes the revoked lease.
        self.worker.record_iteration(self.job_id, self.current_iteration)
        return iteration

    def run_to_completion_or_preemption(self) -> CheckpointRecord:
        """Drive the loader until it stops; returns the checkpoint it saved."""
        for _ in self:
            pass
        if self.checkpoint is None:
            raise LeaseError(f"job {self.job_id} stopped without taking a checkpoint")
        return self.checkpoint
