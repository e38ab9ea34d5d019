"""Tiresias: discretised two-dimensional LAS (Gittins-index style multi-queue).

Tiresias assigns each job a priority queue based on its attained GPU-service
(GPU count x time).  Jobs start in the highest-priority queue and are demoted
as their attained service crosses the thresholds in :data:`QUEUE_THRESHOLDS`;
within a queue jobs run FIFO, across queues higher-priority queues win.
Discretising priorities avoids the continuous-LAS pathology of constantly
swapping jobs whose attained service is nearly equal.

Implementation notes (the incremental hot path):

* idle jobs live in a permanently sorted priority index.  Their key
  ``(queue, arrival, id)`` is frozen while idle: service only accrues while
  RUNNING;
* running jobs live in a kept-sorted tier too.  A running job's queue
  changes only when its attained service crosses a threshold, and service
  accrues at most ``len(allocated_gpus)`` GPU-seconds per second, so the
  crossing time computed in closed form when the job starts running is a
  lower bound.  Those bounds sit in a demotion heap; ``schedule`` checks
  (reading, and so settling, their service) only the jobs whose bound has
  come, and repositions the ones whose queue changed;
* the earliest valid demotion bound is when the decision may next change:
  :meth:`next_policy_event_time` reports it, letting the simulator
  fast-forward through the rounds in between.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex

#: Queue thresholds in GPU-seconds: jobs move to a lower-priority queue after
#: 1 GPU-hour and again after 8 GPU-hours of attained service.
QUEUE_THRESHOLDS = (3600.0, 8 * 3600.0)

#: Slack, relative to the clock, by which a demotion bound is checked early.
#: Float drift between the closed-form bound and the accumulated service is
#: at most ``rounds x 2**-52`` relative, so this covers any run of fewer than
#: ``2**32`` rounds (checking early only costs a settle).
_DEMOTION_SLACK = 2.0**-20


def queue_index(job: Job) -> int:
    """The discrete priority queue a job currently belongs to (0 = highest).

    The number of thresholds the job's attained service has reached: the
    first queue whose threshold it is still below.
    """
    return bisect_right(QUEUE_THRESHOLDS, job.attained_service)


def _queue_key(job: Job):
    return (queue_index(job), job.arrival_time, job.job_id)


class TiresiasScheduling(SchedulingPolicy):
    """Discrete-LAS scheduling over the queues of :data:`QUEUE_THRESHOLDS`."""

    name = "tiresias"

    #: ``schedule``'s one side effect is applying due demotions, which
    #: :meth:`next_policy_event_time` bounds; so while every active job runs
    #: with its requested gang a re-ordering cannot change the outcome and
    #: rounds may be skipped.
    steady_state_safe = True

    def __init__(self) -> None:
        #: (bound, job_id) demotion heap for jobs in the running tier, and
        #: each running job's current bound (an entry is valid iff it
        #: matches): the earliest time its service may cross the next
        #: threshold.
        self._demote_heap: List[Tuple[float, int]] = []
        self._demote_at: Dict[int, float] = {}
        self._index = RunnablePriorityIndex(
            idle_key=_queue_key,
            running_key=_queue_key,
            on_rebuild=self._reset_bounds,
            on_transition=self._record_transition,
            on_running_enter=self._push_demotion_bound,
        )

    def _reset_bounds(self) -> None:
        self._demote_heap.clear()
        self._demote_at.clear()

    def _now(self) -> float:
        job_state = self._index.job_state
        return getattr(job_state, "current_time", 0.0) if job_state is not None else 0.0

    # ------------------------------------------------------------------
    # Demotion bounds
    # ------------------------------------------------------------------

    def _record_transition(self, job: Job, old: Optional[JobStatus]) -> None:
        """Invalidate the demotion bound of a job leaving RUNNING (fires
        before the index re-tiers it): its running key is gone."""
        if old == JobStatus.RUNNING:
            self._demote_at.pop(job.job_id, None)

    def _push_demotion_bound(self, job: Job) -> None:
        """Called when a job enters the running tier (or was checked): bound its next crossing.

        Service accrues at most ``len(allocated_gpus)`` GPU-seconds per
        second, so ``now + (threshold - attained) / gpus`` is the earliest
        time the job can reach the next threshold.
        """
        attained = job.attained_service
        queue = bisect_right(QUEUE_THRESHOLDS, attained)
        gpus = len(job.allocated_gpus)
        if queue == len(QUEUE_THRESHOLDS) or gpus <= 0:
            return  # already in the last queue: no demotion left
        bound = self._now() + (QUEUE_THRESHOLDS[queue] - attained) / gpus
        self._demote_at[job.job_id] = bound
        heapq.heappush(self._demote_heap, (bound, job.job_id))

    def _apply_due_demotions(self, now: float) -> None:
        """Check the running jobs whose demotion bound has come (see ``_DEMOTION_SLACK``).

        Each is settled by reading its service, repositioned if its queue
        changed, and bounded afresh.
        """
        heap = self._demote_heap
        horizon = now + abs(now) * _DEMOTION_SLACK
        due = []
        while heap and heap[0][0] <= horizon:
            bound, job_id = heapq.heappop(heap)
            if self._demote_at.get(job_id) == bound:
                del self._demote_at[job_id]
                due.append(job_id)
        index = self._index
        job_state = index.job_state
        for job_id in due:
            job = job_state.get(job_id)  # type: ignore[union-attr]
            if index.running_key_of(job_id)[0] != queue_index(job):  # type: ignore[index]
                index.reposition(job)
            self._push_demotion_bound(job)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterator[ScheduleEntry]:
        self._index.bind(job_state)
        self._apply_due_demotions(getattr(job_state, "current_time", 0.0))
        return self._index.gang_entries()

    # ------------------------------------------------------------------
    # Event-aware fast-forward support
    # ------------------------------------------------------------------

    def next_policy_event_time(
        self, job_state: JobState, cluster_state: ClusterState, now: float
    ) -> Optional[float]:
        """The earliest still-valid demotion bound (pops stale entries).

        The bounds are closed-form lower bounds on each running job's next
        threshold crossing.
        """
        if self._index.job_state is not job_state:
            return now  # not bound to this registry; no cached state to trust
        heap = self._demote_heap
        while heap:
            bound, job_id = heap[0]
            if self._demote_at.get(job_id) == bound:
                return bound
            heapq.heappop(heap)  # left the running tier, or re-bounded
        return None
