"""``BloxManager``: the glue between the scheduling loop and the execution backend.

In the paper the BloxManager maintains RPC endpoints for job submission and
worker communication.  In simulation it owns the simulated clock, the wait
queue of not-yet-arrived trace jobs, and the application of placement
decisions (launch/suspend) to the shared state -- the methods called from the
scheduling loop in Figure 2 of the paper (``update_cluster``,
``update_metrics``, ``prune_completed_jobs``, ``pop_wait_queue``,
``exec_jobs``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple

from repro.core.abstractions import ClusterManager, PlacementDecision
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.core.mechanisms import SimulatedLauncher, SimulatedPreemption
from repro.simulator.execution import ExecutionModel


def is_lease_renewal(job: Job, gpu_ids) -> bool:
    """Whether (re)launching ``job`` on ``gpu_ids`` would change nothing.

    Relies on ``job.allocated_gpus`` being maintained sorted (the launcher
    sorts it; preemption and pruning clear it), so the plain equality decides
    a sorted listing without sorting.  The stock placements emit the
    allocation delta and never list a kept job; this is for policies that
    do.  Shared by :meth:`BloxManager.exec_jobs` and the simulator's
    no-op-decision witness so the two can never disagree.
    """
    return job.status == JobStatus.RUNNING and (
        gpu_ids == job.allocated_gpus or sorted(gpu_ids) == job.allocated_gpus
    )


class BloxManager:
    """Drives simulated time and applies scheduling decisions to shared state."""

    def __init__(
        self,
        trace_jobs: Iterable[Job],
        round_duration: float = 300.0,
        execution_model: Optional[ExecutionModel] = None,
        launcher: Optional[SimulatedLauncher] = None,
        preemptor: Optional[SimulatedPreemption] = None,
        cluster_manager: Optional[ClusterManager] = None,
    ) -> None:
        if round_duration <= 0:
            raise ConfigurationError(f"round_duration must be > 0, got {round_duration}")
        self.round_duration = float(round_duration)
        self.current_time = 0.0
        self.round_number = 0
        self.execution = execution_model if execution_model is not None else ExecutionModel()
        overheads = self.execution.overheads
        self.launcher = launcher if launcher is not None else SimulatedLauncher(overheads)
        self.preemptor = preemptor if preemptor is not None else SimulatedPreemption(overheads)
        self.cluster_manager = cluster_manager if cluster_manager is not None else ClusterManager()
        self._wait_queue: Deque[Job] = deque(
            sorted(trace_jobs, key=lambda j: (j.arrival_time, j.job_id))
        )

    # ------------------------------------------------------------------
    # Loop steps (names follow Figure 2 in the paper)
    # ------------------------------------------------------------------

    def update_cluster(self, cluster_state: ClusterState) -> List[int]:
        """Apply node membership changes; returns job ids affected by failures."""
        return self.cluster_manager.update(cluster_state, self.current_time)

    def update_metrics(self, cluster_state: ClusterState, job_state: JobState) -> None:
        """Advance every running job over the round that just elapsed."""
        if self.round_number == 0:
            return
        self.execution.advance_running(
            job_state.running_jobs(),
            cluster_state,
            self.current_time - self.round_duration,
            self.round_duration,
        )

    def prune_completed_jobs(
        self, cluster_state: ClusterState, job_state: JobState
    ) -> List[Job]:
        """Release resources held by jobs that finished during the last round.

        Consumes the ids the registry saw turn terminal since the previous
        prune -- the newly-finished part of the round's allocation delta --
        in ascending id, so a round in which nothing finished costs one
        emptiness check and no running job is ever probed.
        """
        released = []
        for job_id in job_state.take_newly_finished():
            job = job_state.get(job_id)
            if job.is_finished and cluster_state.num_gpus_for_job(job_id):
                cluster_state.release_job(job_id)
                job.allocated_gpus = []
                released.append(job)
        return released

    def pop_wait_queue(self) -> List[Job]:
        """Return jobs whose arrival time has passed since the previous round."""
        arrived: List[Job] = []
        while self._wait_queue and self._wait_queue[0].arrival_time <= self.current_time:
            arrived.append(self._wait_queue.popleft())
        return arrived

    def exec_jobs(
        self,
        decision: PlacementDecision,
        cluster_state: ClusterState,
        job_state: JobState,
    ) -> List[Tuple[int, List[int]]]:
        """Apply a placement decision: suspend first, then launch.

        A running job the decision does not name keeps its GPUs.  One listed
        under exactly the GPUs it already holds is a lease renewal: skipped,
        no overhead.  Returns the launches actually applied (renewals
        excluded), so the engine can trace real decisions without a second
        lease-renewal scan over the launch map.
        """
        for job_id in decision.to_suspend:
            job = job_state.get(job_id)
            self.preemptor.preempt(job, cluster_state, self.current_time)

        launched: List[Tuple[int, List[int]]] = []
        for job_id in sorted(decision.to_launch):
            gpu_ids = decision.to_launch[job_id]
            job = job_state.get(job_id)
            if job.is_finished:
                continue
            if is_lease_renewal(job, gpu_ids):
                continue  # lease renewed, nothing to do
            if job.status == JobStatus.RUNNING:
                # Placement changed without an explicit suspend: treat as a move.
                self.preemptor.preempt(job, cluster_state, self.current_time)
            self.launcher.launch(job, gpu_ids, cluster_state, self.current_time)
            launched.append((job_id, gpu_ids))
        return launched

    def advance_time(self) -> None:
        """Move the simulated clock forward by one round.

        Simulated time is computed from the round index, never accumulated,
        so ``current_time == round_number * round_duration`` holds exactly at
        every round and a skip of any length lands on the same float a
        round-by-round run reaches.  Overrides must preserve that identity.
        """
        self.round_number += 1
        self.current_time = self.round_number * self.round_duration

    def submit_job(self, job: Job) -> None:
        """Append a job to the wait queue mid-run.

        This is the federation routing path: a :class:`FederationRouter`
        assigns an incoming gang to a shard, and the shard's manager receives
        it here before the round in which its arrival time falls executes --
        from the shard's point of view the job behaves exactly as if it had
        been in the trace from the start.  Arrivals must be routed in global
        ``(arrival_time, job_id)`` order, so appends keep the queue sorted;
        out-of-order submission would silently reorder ``pop_wait_queue`` and
        is rejected loudly instead.
        """
        if self._wait_queue:
            tail = self._wait_queue[-1]
            if (job.arrival_time, job.job_id) < (tail.arrival_time, tail.job_id):
                raise ConfigurationError(
                    f"job {job.job_id} (arrival {job.arrival_time}) submitted out of "
                    f"order after job {tail.job_id} (arrival {tail.arrival_time})"
                )
        self._wait_queue.append(job)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    @property
    def pending_arrivals(self) -> int:
        """Number of trace jobs that have not arrived yet."""
        return len(self._wait_queue)

    def next_arrival_time(self) -> Optional[float]:
        """Arrival time of the next queued trace job, or ``None`` if all arrived."""
        return self._wait_queue[0].arrival_time if self._wait_queue else None

    def queued_jobs(self) -> List[Job]:
        """Jobs waiting in the arrival queue (submitted/trace, not yet popped).

        Read-only view used by federation routers to account for gangs already
        routed to a shard but not yet admitted by its scheduling loop.
        """
        return list(self._wait_queue)

    def all_arrived(self) -> bool:
        return not self._wait_queue
