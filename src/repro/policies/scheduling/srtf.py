"""Shortest Remaining Time First scheduling.

SRTF prioritises the job that is closest to finishing, minimising average JCT
when job durations are known (in simulation they are, via the trace).  It is
one of the three policies the automatic scheduler synthesizer chooses between
in §5.2 and wins on the bursty workload dominated by short jobs.

Ordering is maintained incrementally: idle jobs' remaining work is frozen
(only running jobs progress), so the priority index keeps them permanently
sorted and each round only re-sorts the running tier -- O(running log running
+ n) instead of a full O(n log n) sort with attribute-access keys.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex


def _srtf_key(job: Job):
    return (job.remaining_work, job.arrival_time, job.job_id)


class SrtfScheduling(SchedulingPolicy):
    """Prioritise jobs by ascending remaining work."""

    name = "srtf"

    #: Stateless gang policy: ordering by remaining work never changes which
    #: jobs run while all active jobs are already running, so steady-state
    #: rounds may be fast-forwarded.
    steady_state_safe = True

    def __init__(self) -> None:
        self._index = RunnablePriorityIndex(idle_key=_srtf_key)

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterator[ScheduleEntry]:
        self._index.bind(job_state)
        return self._index.gang_entries(self._index.ordered(running_key=_srtf_key))
