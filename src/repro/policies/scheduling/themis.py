"""Themis: finish-time fairness (FTF) scheduling.

Themis defines a job's fairness metric rho as the ratio between its projected
finish time under the shared cluster and its finish time had it run alone on
its requested allocation.  Each round, Themis offers resources to the
worst-off jobs (largest rho) -- a fraction controlled by the fairness knob
``f`` -- which equalises rho across jobs over time.  The fair-share estimate
for each job is recorded in its metrics every round (the paper's Table 7 notes
Themis only needs the scheduling policy and metric collection modules).
"""

from __future__ import annotations

import math
from typing import List

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex


def _id_key(job: Job):
    return (job.job_id,)


class ThemisScheduling(SchedulingPolicy):
    """Prioritise jobs with the worst finish-time fairness."""

    name = "themis"
    # Explicit fast-forward contract (C101): finish-time fairness depends on
    # `now`, so priorities drift every round even with no job events.
    steady_state_safe = False

    def __init__(self, fairness_knob: float = 0.8) -> None:
        if not 0.0 <= fairness_knob < 1.0:
            raise ConfigurationError("fairness_knob must be in [0, 1)")
        self.fairness_knob = fairness_knob
        # rho drifts with ``now`` for waiting jobs too, so no tier order
        # survives a round: the index supplies the runnable set and the
        # reused entries, and every round sorts by rho.
        self._index = RunnablePriorityIndex(idle_key=_id_key)

    def finish_time_fairness(self, job: Job, now: float) -> float:
        """rho = projected shared finish time / isolated finish time."""
        ideal = max(job.duration, 1e-9)
        shared = (now - job.arrival_time) + job.remaining_work
        return max(0.0, shared) / ideal

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        now = getattr(job_state, "current_time", 0.0)
        index = self._index
        index.bind(job_state)
        jobs = index.idle_jobs() + index.running_jobs()
        if not jobs:
            return []
        scored = []
        for job in jobs:
            rho = self.finish_time_fairness(job, now)
            job.metrics["finish_time_fairness"] = rho
            scored.append((rho, job))
        scored.sort(key=lambda pair: (-pair[0], pair[1].arrival_time, pair[1].job_id))

        # The auction is only among the worst-off (1 - f) fraction of jobs;
        # remaining jobs are appended afterwards so idle GPUs still get used.
        cutoff = max(1, math.ceil((1.0 - self.fairness_knob) * len(scored)))
        winners = [job for _, job in scored[:cutoff]]
        backfill = [job for _, job in scored[cutoff:]]
        return index.gang_entries(winners + backfill)
