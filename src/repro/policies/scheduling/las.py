"""Least Attained Service scheduling (single queue).

The single-queue LAS policy from Tiresias prioritises jobs that have consumed
the least GPU-time so far, which approximates shortest-job-first without
knowing job durations.  New arrivals have zero attained service so they always
get a shot at resources quickly (good responsiveness), at the cost of
preempting long-running jobs (which hurts their JCT at high load -- the
trade-off the composition case study in §5.1 addresses with admission control).

Ordering is maintained incrementally: attained service only accrues while a
job is RUNNING, so idle jobs keep their cached position in the priority index
and each round only re-sorts the running tier before merging.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex


def _las_key(job: Job):
    return (job.attained_service, job.arrival_time, job.job_id)


class LasScheduling(SchedulingPolicy):
    """Prioritise jobs by ascending attained GPU-service."""

    name = "las"

    #: Stateless gang policy: attained-service ordering never changes which
    #: jobs run while every active job is already running, so steady-state
    #: rounds may be fast-forwarded.
    steady_state_safe = True

    def __init__(self) -> None:
        self._index = RunnablePriorityIndex(idle_key=_las_key)

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterator[ScheduleEntry]:
        self._index.bind(job_state)
        return self._index.gang_entries(self._index.ordered(running_key=_las_key))
