"""Pollux: goodput-driven co-adaptive scheduling (simplified model).

Pollux jointly adapts each job's GPU count and batch size to maximise cluster
*goodput* -- throughput discounted by the statistical efficiency of training at
a larger effective batch size.  Two properties of the real system drive the
behaviour reproduced in the paper's Figures 8 and 9:

* at low load, Pollux expands jobs beyond their requested GPU count when
  resources are idle (better JCT than FIFO/LAS, equal responsiveness);
* Pollux avoids preempting running jobs, so at very high load it shrinks
  allocations to one GPU per running job and newly arriving jobs simply queue,
  degrading both JCT and responsiveness towards FIFO.

We model goodput as ``speedup(g) * statistical_efficiency(g)`` where the
statistical efficiency decays gently as the job scales out (the larger the
effective batch, the less useful each example).  Allocation is water-filling
over marginal goodput, with running jobs guaranteed at least one GPU (no
preemption) and queued jobs served in arrival order.

The water-filling is implemented as a lazy max-heap over marginal goodput --
O(capacity log jobs) per round instead of the seed's O(capacity x jobs) full
rescan per GPU -- and each job's goodput curve is memoized: it depends only on
the job's static profile ``(scaling, num_gpus, max_batch_scale)``, so it is
computed once per job and invalidated via :meth:`invalidate_profile` if a
profiler updates the job mid-run.  Because a job's marginal goodput changes
only when *that job* receives a GPU, the heap pop (after discarding stale
entries) is always the true argmax, and ties break on the lower job id exactly
as the seed's first-strictly-greater scan did: the schedule is bit-identical.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex, arrival_key

#: Minimum marginal goodput for which another GPU is still worth handing out
#: (matches the seed's strictly-greater comparison against this epsilon).
_MIN_GAIN = 1e-12


class _GoodputCurve:
    """Memoized goodput-by-GPU-count curve for one job's static profile."""

    __slots__ = ("cap", "values")

    def __init__(self, cap: int, values: List[float]) -> None:
        self.cap = cap  #: GPUs beyond which the marginal goodput is zero.
        self.values = values  #: ``values[g]`` = goodput on ``g`` GPUs, g in [0, cap].


class PolluxScheduling(SchedulingPolicy):
    """Heap-based goodput-maximising elastic allocation without preemption."""

    name = "pollux"

    def __init__(self, efficiency_decay: float = 0.03, restart_penalty: float = 0.05) -> None:
        if efficiency_decay < 0:
            raise ConfigurationError("efficiency_decay must be >= 0")
        if restart_penalty < 0:
            raise ConfigurationError("restart_penalty must be >= 0")
        self.efficiency_decay = efficiency_decay
        self.restart_penalty = restart_penalty
        self._curves: Dict[int, _GoodputCurve] = {}
        #: Running and waiting tiers both order by (arrival, id) -- static
        #: keys -- so the index keeps the waiting queue permanently sorted.
        self._index = RunnablePriorityIndex(
            idle_key=arrival_key,
            on_rebuild=self._curves.clear,
            on_transition=self._on_transition,
        )

    def _on_transition(self, job: Job, old) -> None:
        # old=None means the job was (re)tracked: a replacement object may
        # carry a different profile, so its memoized curve must go.
        if old is None:
            self._curves.pop(job.job_id, None)

    # ------------------------------------------------------------------
    # Goodput model
    # ------------------------------------------------------------------

    def statistical_efficiency(self, job: Job, num_gpus: int) -> float:
        """Diminishing usefulness of additional data-parallel replicas."""
        extra = max(0, num_gpus - 1)
        scale_limit = max(1, job.max_batch_scale)
        overscale = max(0, num_gpus - scale_limit)
        return 1.0 / (1.0 + self.efficiency_decay * extra + 0.5 * overscale)

    def goodput(self, job: Job, num_gpus: int) -> float:
        if num_gpus <= 0:
            return 0.0
        return job.scaling.speedup(num_gpus) * self.statistical_efficiency(job, num_gpus)

    def _curve(self, job: Job) -> _GoodputCurve:
        curve = self._curves.get(job.job_id)
        if curve is None:
            cap = min(job.scaling.max_useful_gpus, job.num_gpus * max(1, job.max_batch_scale))
            values = [self.goodput(job, g) for g in range(cap + 1)]
            curve = _GoodputCurve(cap, values)
            self._curves[job.job_id] = curve
        return curve

    def invalidate_profile(self, job_id: int) -> None:
        """Drop the memoized goodput curve after a job's profile changed.

        The curve depends only on ``(scaling, num_gpus, max_batch_scale)``;
        callers that update any of these mid-run (an online profiler) must
        invalidate so the next round recomputes the curve.
        """
        self._curves.pop(job_id, None)

    def marginal_goodput(self, job: Job, num_gpus: int) -> float:
        curve = self._curve(job)
        if num_gpus >= curve.cap:
            return 0.0
        gain = curve.values[num_gpus + 1] - curve.values[num_gpus]
        if num_gpus == 0 and job.status != JobStatus.RUNNING:
            # Starting a brand-new job costs a checkpoint-restore; bias very
            # slightly towards growing existing jobs, as Pollux's re-allocation
            # penalty does.
            gain -= self.restart_penalty
        return gain

    def next_policy_event_time(
        self, job_state: JobState, cluster_state: ClusterState, now: float
    ) -> Optional[float]:
        # The allocation is a pure function of the runnable set, job statuses,
        # profiles and healthy capacity -- none of which drift between
        # external events -- so the decision never changes on its own.
        return None

    # ------------------------------------------------------------------

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        self._index.bind(job_state)
        running = sorted(
            ((arrival_key(job), job) for job in self._index.running_jobs()),
            key=lambda entry: entry[0],
        )
        waiting = self._index.idle_entries()
        if not running and not waiting:
            return []
        capacity = cluster_state.healthy_gpus()

        allocation: Dict[int, int] = {}
        # Running jobs are never preempted: they keep at least one GPU.
        remaining = capacity
        for _, job in running:
            if remaining <= 0:
                allocation[job.job_id] = 0
                continue
            allocation[job.job_id] = 1
            remaining -= 1
        for _, job in waiting:
            allocation[job.job_id] = 0

        # Remaining GPUs go to whichever job has the highest marginal goodput;
        # queued jobs compete here and receive their first GPU when idle
        # capacity exists (low load) but queue behind running jobs otherwise.
        # Lazy max-heap: one live entry per job (its gain changes only when it
        # receives a GPU); stale entries are discarded on pop.
        by_id = {job.job_id: job for _, job in running}
        by_id.update((job.job_id, job) for _, job in waiting)
        heap: List[Tuple[float, int, int]] = [
            (-self.marginal_goodput(by_id[job_id], gpus), job_id, gpus)
            for job_id, gpus in allocation.items()
        ]
        heapq.heapify(heap)
        while remaining > 0 and heap:
            neg_gain, job_id, gpus = heapq.heappop(heap)
            if allocation[job_id] != gpus:
                continue  # stale entry from before this job's last grant
            if -neg_gain <= _MIN_GAIN:
                break  # the best remaining marginal gain is not worth a GPU
            allocation[job_id] = gpus + 1
            remaining -= 1
            heapq.heappush(
                heap,
                (-self.marginal_goodput(by_id[job_id], gpus + 1), job_id, gpus + 1),
            )

        return [
            ScheduleEntry(job_id=job.job_id, gpu_demand=allocation[job.job_id])
            for _, job in (*running, *waiting)
            if allocation[job.job_id] > 0
        ]
