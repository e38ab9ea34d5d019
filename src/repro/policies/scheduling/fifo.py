"""First-In-First-Out scheduling, the baseline every other policy is measured against."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex, arrival_key


class FifoScheduling(SchedulingPolicy):
    """Run jobs in arrival order, backfilling GPUs the queue head cannot use.

    FIFO is non-preemptive in spirit: once a job starts it keeps its GPUs until
    it finishes, and newly arriving jobs queue behind the whole backlog -- which
    is why FIFO shows the worst responsiveness at high load in the paper's
    Figure 7 while avoiding the preemption-induced JCT inflation that hits LAS
    and Tiresias there.

    A queued job whose GPU demand does not fit does not block the jobs behind
    it: later jobs may backfill the leftover GPUs.  This matches how
    production FIFO queues behave and keeps utilisation comparable to the
    preemptive policies, so the comparison isolates the ordering decision.
    """

    name = "fifo"

    #: Stateless gang policy: with every active job running on its requested
    #: allocation, rescheduling is a no-op (all running jobs always fit
    #: capacity), so steady-state rounds may be fast-forwarded.
    steady_state_safe = True

    def __init__(self) -> None:
        # Arrival keys never change: both tiers are kept sorted.
        self._index = RunnablePriorityIndex(idle_key=arrival_key, running_key=arrival_key)

    def next_policy_event_time(
        self, job_state: JobState, cluster_state: ClusterState, now: float
    ) -> Optional[float]:
        # Arrival order is static and demands are the requested gangs, so the
        # decision is a pure function of the job set, statuses and capacity:
        # it can only change on external events.
        return None

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterator[ScheduleEntry]:
        self._index.bind(job_state)
        return self._index.gang_entries()
