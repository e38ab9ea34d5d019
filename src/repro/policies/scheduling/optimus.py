"""Optimus: allocate GPUs by largest marginal gain in convergence speed.

Optimus estimates each job's remaining time to convergence and distributes
GPUs greedily: every runnable job first receives one GPU in order of expected
convergence (jobs closest to finishing first), then the remaining GPUs are
handed out one at a time to the job whose completion time shrinks the most
from an extra GPU.  Optimus is elastic -- the number of GPUs a job receives
each round can differ from its request -- and it consumes the loss metric
pushed by the metric collector to estimate convergence progress.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job
from repro.core.job_state import JobState


class OptimusScheduling(SchedulingPolicy):
    """Largest-marginal-gain elastic GPU allocation."""

    name = "optimus"
    # Explicit fast-forward contract (C101): marginal gains shift with every
    # progress update, so decisions may change each round.
    steady_state_safe = False

    def __init__(self, max_gpus_per_job: int = 32) -> None:
        if max_gpus_per_job < 1:
            raise ConfigurationError("max_gpus_per_job must be >= 1")
        self.max_gpus_per_job = max_gpus_per_job

    # ------------------------------------------------------------------
    # Convergence / gain model
    # ------------------------------------------------------------------

    @staticmethod
    def _estimated_remaining_work(job: Job) -> float:
        """Remaining work until convergence in requested-allocation seconds.

        Optimus uses the observed loss trajectory; with the toolkit's synthetic
        loss curves the convergence point corresponds to the job's
        ``convergence_fraction`` of its requested duration, so the estimate is
        the distance to that point (never negative).
        """
        target = job.duration * job.convergence_fraction
        return max(0.0, target - job.work_done)

    def _completion_time_with(self, job: Job, num_gpus: int) -> float:
        rate = job.throughput_factor(num_gpus)
        if rate <= 0:
            return float("inf")
        return self._estimated_remaining_work(job) / rate

    def marginal_gain(self, job: Job, current_gpus: int) -> float:
        """Reduction in estimated completion time from one additional GPU."""
        cap = min(self.max_gpus_per_job, job.scaling.max_useful_gpus)
        if current_gpus >= cap:
            return 0.0
        return self._completion_time_with(job, current_gpus) - self._completion_time_with(
            job, current_gpus + 1
        )

    # ------------------------------------------------------------------

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        jobs = sorted(
            job_state.runnable_jobs(),
            key=lambda j: (self._estimated_remaining_work(j), j.arrival_time, j.job_id),
        )
        if not jobs:
            return []
        capacity = cluster_state.healthy_gpus()

        allocation: Dict[int, int] = {j.job_id: 0 for j in jobs}
        by_id = {j.job_id: j for j in jobs}

        # Phase 1: one GPU per job in convergence order.
        remaining = capacity
        for job in jobs:
            if remaining <= 0:
                break
            allocation[job.job_id] = 1
            remaining -= 1

        # Phase 2: greedily hand out the rest by largest marginal gain.
        while remaining > 0:
            best_job_id = None
            best_gain = 0.0
            for job_id, gpus in allocation.items():
                if gpus == 0:
                    continue
                gain = self.marginal_gain(by_id[job_id], gpus)
                if gain > best_gain:
                    best_gain = gain
                    best_job_id = job_id
            if best_job_id is None:
                break
            allocation[best_job_id] += 1
            remaining -= 1

        return [
            ScheduleEntry(job_id=job.job_id, gpu_demand=allocation[job.job_id])
            for job in jobs
            if allocation[job.job_id] > 0
        ]
