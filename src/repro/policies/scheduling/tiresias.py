"""Tiresias: discretised two-dimensional LAS (Gittins-index style multi-queue).

Tiresias assigns each job a priority queue based on its attained GPU-service
(GPU count x time).  Jobs start in the highest-priority queue and are demoted
as their attained service crosses configurable thresholds; within a queue jobs
run FIFO, across queues higher-priority queues win.  Discretising priorities
avoids the continuous-LAS pathology of constantly swapping jobs whose attained
service is nearly equal.  An optional starvation guard promotes jobs back to
the top queue once they have been runnable-but-not-running for too long
(Tiresias' PROMOTE knob).

Implementation notes (the incremental hot path):

* the comparator is **pure**.  The seed updated ``_last_run_time`` from inside
  the sort key; the wait clock is now maintained by
  :class:`~repro.core.job_state.JobStateObserver` transition hooks -- the
  moment a job stops RUNNING is recorded once, at the transition -- so
  ordering is safe to evaluate any number of times, and the clock stays
  correct even for rounds the simulator skips entirely;
* idle jobs live in a permanently sorted priority index.  Their queue index is
  frozen while idle (service only accrues while RUNNING); the only
  time-driven change, starvation promotion, is applied by popping due
  deadlines from a heap and repositioning just those jobs;
* the policy can bound, in closed form, when its decision next changes:
  queue-demotion crossings of running jobs (service accrues at exactly
  ``len(allocated_gpus)`` GPU-seconds per second between completions) and
  promotion deadlines of waiting jobs.  :meth:`next_policy_event_time`
  reports the earliest, letting the simulator fast-forward through the
  rounds in between.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex

#: Default queue thresholds in GPU-seconds: jobs move to a lower-priority queue
#: after 1 GPU-hour and again after 8 GPU-hours of attained service.
DEFAULT_QUEUE_THRESHOLDS = (3600.0, 8 * 3600.0)


class TiresiasScheduling(SchedulingPolicy):
    """Discrete-LAS scheduling with configurable queue thresholds."""

    name = "tiresias"

    #: ``schedule`` is side-effect free (the wait clock lives in observer
    #: hooks), so while every active job runs with its requested gang a
    #: re-ordering cannot change the outcome and rounds may be skipped.
    steady_state_safe = True

    def __init__(
        self,
        queue_thresholds: Sequence[float] = DEFAULT_QUEUE_THRESHOLDS,
        starvation_promote_after: float = float("inf"),
    ) -> None:
        thresholds = list(queue_thresholds)
        if any(t <= 0 for t in thresholds):
            raise ConfigurationError("queue thresholds must be positive")
        if thresholds != sorted(thresholds):
            raise ConfigurationError("queue thresholds must be increasing")
        if starvation_promote_after <= 0:
            raise ConfigurationError("starvation_promote_after must be positive")
        self.queue_thresholds = thresholds
        self.starvation_promote_after = starvation_promote_after
        #: Simulated time at which each job last stopped RUNNING; jobs that
        #: never ran fall back to their arrival time.  Maintained by the
        #: transition hook, never by the comparator.
        self._last_run_time: Dict[int, float] = {}
        #: (deadline, job_id) promotion heap for jobs in the idle tier.
        self._promote_heap: List[Tuple[float, int]] = []
        self._index = RunnablePriorityIndex(
            idle_key=self._idle_key,
            on_rebuild=self._reset_clocks,
            on_transition=self._record_transition,
            on_idle_enter=self._push_promotion_deadline,
        )

    def _reset_clocks(self) -> None:
        self._last_run_time.clear()
        self._promote_heap.clear()

    @property
    def num_queues(self) -> int:
        return len(self.queue_thresholds) + 1

    # ------------------------------------------------------------------
    # Priority model (pure -- safe to evaluate any number of times)
    # ------------------------------------------------------------------

    def queue_index(self, job: Job) -> int:
        """The discrete priority queue a job currently belongs to (0 = highest)."""
        for index, threshold in enumerate(self.queue_thresholds):
            if job.attained_service < threshold:
                return index
        return len(self.queue_thresholds)

    def _waited(self, job: Job, now: float) -> float:
        return now - self._last_run_time.get(job.job_id, job.arrival_time)

    def _effective_queue(self, job: Job, now: float) -> int:
        """The queue used for ordering, with the starvation guard applied.

        RUNNING jobs are never starved; waiting jobs that have not run for
        ``starvation_promote_after`` seconds are lifted to the top queue.
        """
        if (
            job.status != JobStatus.RUNNING
            and self._waited(job, now) >= self.starvation_promote_after
        ):
            return 0
        return self.queue_index(job)

    def _now(self) -> float:
        job_state = self._index.job_state
        return getattr(job_state, "current_time", 0.0) if job_state is not None else 0.0

    def _idle_key(self, job: Job):
        return (self._effective_queue(job, self._now()), job.arrival_time, job.job_id)

    # ------------------------------------------------------------------
    # Observer-driven clock and promotion bookkeeping
    # ------------------------------------------------------------------

    def _record_transition(self, job: Job, old: Optional[JobStatus]) -> None:
        """Record when a job stops RUNNING (fires before the index re-tiers it).

        Equivalent to the seed's per-round clock refresh: the last value the
        seed recorded for a job was the schedule time of the round in which it
        stopped running, which is exactly the transition time captured here.
        """
        if job.is_finished:
            self._last_run_time.pop(job.job_id, None)  # nothing outlives its job
        elif old == JobStatus.RUNNING and job.status != JobStatus.RUNNING:
            self._last_run_time[job.job_id] = self._now()

    def _push_promotion_deadline(self, job: Job) -> None:
        """Called when a job enters the idle tier; schedules its promotion."""
        if not math.isfinite(self.starvation_promote_after):
            return
        key = self._index.idle_key_of(job.job_id)
        if key is not None and key[0] == 0:
            return  # already in (or promoted to) the top queue: promotion is moot
        deadline = self._promotion_deadline_of(job)
        heapq.heappush(self._promote_heap, (deadline, job.job_id))

    def _promotion_deadline_of(self, job: Job) -> float:
        start = self._last_run_time.get(job.job_id, job.arrival_time)
        return start + self.starvation_promote_after

    def _apply_due_promotions(self, now: float) -> None:
        """Reposition idle jobs whose starvation deadline has passed."""
        heap = self._promote_heap
        job_state = self._index.job_state
        while heap and heap[0][0] <= now:
            deadline, job_id = heapq.heappop(heap)
            key = self._index.idle_key_of(job_id)
            if key is None or key[0] == 0:
                continue  # left the idle tier, or already top-queue: stale entry
            job = job_state.get(job_id)  # type: ignore[union-attr]
            if self._promotion_deadline_of(job) != deadline:
                continue  # clock advanced since this entry; a fresh one exists
            self._index.reposition(job)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        now = getattr(job_state, "current_time", 0.0)
        self._index.bind(job_state)
        self._apply_due_promotions(now)

        def running_key(job: Job):
            return (self.queue_index(job), job.arrival_time, job.job_id)

        ordered = self._index.ordered(running_key=running_key)
        return self._index.gang_entries(ordered)

    # ------------------------------------------------------------------
    # Event-aware fast-forward support
    # ------------------------------------------------------------------

    def next_policy_event_time(
        self, job_state: JobState, cluster_state: ClusterState, now: float
    ) -> Optional[float]:
        """Earliest queue-demotion crossing or starvation-promotion deadline.

        Running jobs accrue attained service at exactly ``len(allocated_gpus)``
        GPU-seconds per wall-clock second (a completion, which ends the
        accrual, also ends the fast-forward stretch), so the crossing into the
        next queue is closed-form.  Promotion deadlines come from the idle
        heap.
        """
        if self._index.job_state is not job_state:
            return now  # not bound to this registry; no cached state to trust
        earliest: Optional[float] = None
        for job in self._index.running_jobs():
            gpus = len(job.allocated_gpus)
            if gpus <= 0:
                continue
            for threshold in self.queue_thresholds:
                if job.attained_service < threshold:
                    crossing = now + (threshold - job.attained_service) / gpus
                    if earliest is None or crossing < earliest:
                        earliest = crossing
                    break
        promotion = self._next_promotion_deadline()
        if promotion is not None and (earliest is None or promotion < earliest):
            earliest = promotion
        return earliest

    def _next_promotion_deadline(self) -> Optional[float]:
        """Peek the earliest still-valid promotion deadline (pops stale entries)."""
        heap = self._promote_heap
        job_state = self._index.job_state
        while heap:
            deadline, job_id = heap[0]
            key = self._index.idle_key_of(job_id)
            if key is None or key[0] == 0:
                heapq.heappop(heap)  # gone from the idle tier or already top
                continue
            job = job_state.get(job_id)  # type: ignore[union-attr]
            if self._promotion_deadline_of(job) != deadline:
                heapq.heappop(heap)  # superseded by a later entry
                continue
            return deadline
        return None
