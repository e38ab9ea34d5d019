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

The water-filling is implemented as a max-heap over marginal goodput --
O(capacity log jobs) per round instead of the seed's O(capacity x jobs) full
rescan per GPU -- over memoized *gain tables*: ``gains[g]`` is the goodput
added by a ``g+1``-th GPU (the seed's ``goodput(g+1) - goodput(g)``, the same
float subtraction), which depends only on the job's static profile
``(scaling, num_gpus, max_batch_scale)``, so it is computed once per job and
invalidated via :meth:`invalidate_profile` if a profiler updates the job
mid-run.  Because a job's marginal goodput changes only when *that job*
receives a GPU, the heap holds at most one entry per job and its pop is always
the true argmax; ties break on the lower job id exactly as the seed's
first-strictly-greater scan did: the schedule is bit-identical.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex, arrival_key

#: Minimum marginal goodput for which another GPU is still worth handing out
#: (matches the seed's strictly-greater comparison against this epsilon).
_MIN_GAIN = 1e-12


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
        #: job id -> gain table (see the module docstring); one per runnable
        #: job that has been scheduled, dropped when the job finishes.
        self._gain_tables: Dict[int, List[float]] = {}
        #: Running and waiting tiers both order by (arrival, id) -- static
        #: keys -- so the index keeps both permanently sorted.
        self._index = RunnablePriorityIndex(
            idle_key=arrival_key,
            running_key=arrival_key,
            on_rebuild=self._gain_tables.clear,
            on_transition=self._on_transition,
        )

    def _on_transition(self, job: Job, old) -> None:
        # old=None means the job was (re)tracked: a replacement object may
        # carry a different profile, so its memoized table must go; a
        # finished job's goes with it (nothing outlives its job).
        if old is None or job.is_finished:
            self._gain_tables.pop(job.job_id, None)

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

    def _gains(self, job: Job) -> List[float]:
        """``gains[g]`` = goodput added by a ``g+1``-th GPU; empty past the cap."""
        gains = self._gain_tables.get(job.job_id)
        if gains is None:
            cap = min(job.scaling.max_useful_gpus, job.num_gpus * max(1, job.max_batch_scale))
            values = [self.goodput(job, g) for g in range(cap + 1)]
            gains = [values[g + 1] - values[g] for g in range(cap)]
            self._gain_tables[job.job_id] = gains
        return gains

    def invalidate_profile(self, job_id: int) -> None:
        """Drop the memoized gain table after a job's profile changed.

        The table depends only on ``(scaling, num_gpus, max_batch_scale)``;
        callers that update any of these mid-run (an online profiler) must
        invalidate so the next round recomputes it.
        """
        self._gain_tables.pop(job_id, None)

    def marginal_goodput(self, job: Job, num_gpus: int) -> float:
        gains = self._gains(job)
        if num_gpus >= len(gains):
            return 0.0
        gain = gains[num_gpus]
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

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterator[ScheduleEntry]:
        self._index.bind(job_state)
        running = [job for _, job in self._index.running_entries()]
        waiting = [job for _, job in self._index.idle_entries()]
        gains_of = self._gains

        # Running jobs are never preempted: they keep at least one GPU.  The
        # heap is what ``marginal_goodput`` would say, read off the tables
        # inline: (-gain, job id, GPUs so far, gains).  The running tier is
        # RUNNING, so the restart penalty falls on waiting jobs only, at 0
        # GPUs.  Gains not worth a GPU are never pushed: the heap's top is
        # then the seed's argmax for as long as the seed kept granting.
        allocation: Dict[int, int] = {}
        heap: List[Tuple[float, int, int, List[float]]] = []
        remaining = cluster_state.healthy_gpus()
        for job in running:
            gpus = 0
            if remaining > 0:
                gpus = allocation[job.job_id] = 1
                remaining -= 1
            gains = gains_of(job)
            if gpus < len(gains) and gains[gpus] > _MIN_GAIN:
                heap.append((-gains[gpus], job.job_id, gpus, gains))
        # Queued jobs compete here and receive their first GPU when idle
        # capacity exists (low load) but queue behind running jobs otherwise.
        if remaining > 0:
            penalty = self.restart_penalty
            for job in waiting:
                gains = gains_of(job)
                if gains and gains[0] - penalty > _MIN_GAIN:
                    heap.append((-(gains[0] - penalty), job.job_id, 0, gains))
        heapq.heapify(heap)
        # A job's gain changes only when it receives a GPU, so the heap holds
        # one entry per job and the top is always current.
        while remaining > 0 and heap:
            _, job_id, gpus, gains = heap[0]
            gpus = allocation[job_id] = gpus + 1
            remaining -= 1
            if gpus < len(gains) and gains[gpus] > _MIN_GAIN:
                heapq.heapreplace(heap, (-gains[gpus], job_id, gpus, gains))
            else:
                heapq.heappop(heap)

        entry_for = self._index.entry_for
        return (
            entry_for(job, allocation[job.job_id])
            for job in (*running, *waiting)
            if job.job_id in allocation
        )
