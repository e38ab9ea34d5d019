"""First-In-First-Out scheduling, the baseline every other policy is measured against."""

from __future__ import annotations

from typing import List, Optional

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex, arrival_key


class FifoScheduling(SchedulingPolicy):
    """Run jobs strictly in arrival order.

    FIFO is non-preemptive in spirit: once a job starts it keeps its GPUs until
    it finishes, and newly arriving jobs queue behind the whole backlog -- which
    is why FIFO shows the worst responsiveness at high load in the paper's
    Figure 7 while avoiding the preemption-induced JCT inflation that hits LAS
    and Tiresias there.

    ``hol_blocking`` controls whether a queued job whose GPU demand does not fit
    blocks everything behind it (strict head-of-line blocking) or whether later
    jobs may backfill the leftover GPUs.  Backfilling is the default: it matches
    how production FIFO queues behave and keeps utilisation comparable to the
    preemptive policies so the comparison isolates the ordering decision.
    """

    name = "fifo"

    #: Stateless gang policy: with every active job running on its requested
    #: allocation, rescheduling is a no-op, so steady-state rounds may be
    #: fast-forwarded (with backfilling, all running jobs always fit capacity;
    #: with strict HOL blocking the running prefix still fits, so the loop
    #: never breaks early on a running job).
    steady_state_safe = True

    def __init__(self, hol_blocking: bool = False) -> None:
        self.hol_blocking = hol_blocking
        self._index = RunnablePriorityIndex(idle_key=arrival_key)

    def next_policy_event_time(
        self, job_state: JobState, cluster_state: ClusterState, now: float
    ) -> Optional[float]:
        # Arrival order is static and demands are the requested gangs, so the
        # decision is a pure function of the job set, statuses and capacity:
        # it can only change on external events.
        return None

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        self._index.bind(job_state)
        ordered = self._index.ordered(running_key=arrival_key)
        if self.hol_blocking:
            # Strict head-of-line blocking: the list ends at the first job
            # whose gang does not fit what the jobs before it leave.
            remaining = cluster_state.healthy_gpus()
            for count, job in enumerate(ordered):
                if job.num_gpus > remaining:
                    del ordered[count:]
                    break
                remaining -= job.num_gpus
        return self._index.gang_entries(ordered)
