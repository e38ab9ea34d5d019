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

import heapq
from typing import Dict, List, Tuple

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job import Job
from repro.core.job_state import JobState

#: The most GPUs Optimus hands a single job.
MAX_GPUS_PER_JOB = 32


class OptimusScheduling(SchedulingPolicy):
    """Largest-marginal-gain elastic GPU allocation."""

    name = "optimus"
    # Explicit fast-forward contract (C101): marginal gains shift with every
    # progress update, so decisions may change each round.
    steady_state_safe = False

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
        cap = min(MAX_GPUS_PER_JOB, job.scaling.max_useful_gpus)
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

        # Phase 1: one GPU per job in convergence order.
        remaining = capacity
        for job in jobs:
            if remaining <= 0:
                break
            allocation[job.job_id] = 1
            remaining -= 1

        # Phase 2: greedily hand out the rest by largest marginal gain, first
        # maximum in convergence order on ties.  A max-heap keyed by (-gain,
        # position) pops exactly that job; a job's gain changes only when it
        # receives a GPU, so each job has at most one (current) entry, and a
        # gain that is not > 0 (NaN included) is never pushed -- the scan it
        # replaces never picked one.
        heap: List[Tuple[float, int]] = []
        if remaining > 0:
            for position, job in enumerate(jobs):
                gain = self.marginal_gain(job, allocation[job.job_id])
                if gain > 0.0:
                    heap.append((-gain, position))
            heapq.heapify(heap)
        while remaining > 0 and heap:
            position = heap[0][1]
            job = jobs[position]
            allocation[job.job_id] += 1
            remaining -= 1
            gain = self.marginal_gain(job, allocation[job.job_id])
            if gain > 0.0:
                heapq.heapreplace(heap, (-gain, position))
            else:
                heapq.heappop(heap)

        return [
            ScheduleEntry(job_id=job.job_id, gpu_demand=allocation[job.job_id])
            for job in jobs
            if allocation[job.job_id] > 0
        ]
