"""Themis: finish-time fairness (FTF) scheduling.

Themis defines a job's fairness metric rho as the ratio between its projected
finish time under the shared cluster and its finish time had it run alone on
its requested allocation.  Each round, Themis offers resources to the
worst-off jobs (largest rho) first, which equalises rho across jobs over time
(the paper's Table 7 notes Themis only needs the scheduling policy and metric
collection modules).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex


class ThemisScheduling(SchedulingPolicy):
    """Prioritise jobs with the worst finish-time fairness."""

    name = "themis"
    # Explicit fast-forward contract (C101): finish-time fairness depends on
    # `now`, so priorities drift every round even with no job events.
    steady_state_safe = False

    def __init__(self) -> None:
        # rho drifts with ``now`` for waiting jobs too, so no tier order
        # survives a round: every round sorts the registry's runnable set by
        # rho, and the index, which keeps no idle tier, reuses the entries.
        self._index = RunnablePriorityIndex(idle_key=None)

    def finish_time_fairness(self, job: Job, now: float) -> float:
        """rho = projected shared finish time / isolated finish time."""
        ideal = max(job.duration, 1e-9)
        shared = (now - job.arrival_time) + job.remaining_work
        return max(0.0, shared) / ideal

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterator[ScheduleEntry]:
        now = getattr(job_state, "current_time", 0.0)
        index = self._index
        index.bind(job_state)
        scored = [(self.finish_time_fairness(job, now), job) for job in job_state.runnable_jobs()]
        scored.sort(key=lambda pair: (-pair[0], pair[1].arrival_time, pair[1].job_id))
        return index.gang_entries(job for _, job in scored)
