"""The workload trace abstraction shared by all generators and parsers.

A trace is an ordered stream of job submissions (arrival time, requested GPUs,
isolated duration, model).  The Blox paper tracks a "steady-state" window of
job ids for its load-sweep experiments; :meth:`Trace.tracked_ids` exposes the
same mechanism.  Because simulations mutate job objects, experiments that run
the same trace under several policies must use :meth:`Trace.fresh_jobs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.exceptions import ConfigurationError
from repro.core.job import Job


@dataclass
class Trace:
    """An immutable-by-convention list of jobs plus the tracked steady-state window."""

    jobs: List[Job]
    name: str = "trace"
    tracked_range: Optional[tuple] = None  # (start_index, end_index) into the job list
    #: Explicit tracked job ids.  Takes precedence over ``tracked_range``;
    #: used by trace transformations (spike injection) whose added jobs
    #: interleave with the original arrivals, where an index window would
    #: silently re-target to different jobs after the re-sort.
    tracked_job_ids: Optional[tuple] = None

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ConfigurationError("a trace must contain at least one job")
        self.jobs = sorted(self.jobs, key=lambda j: (j.arrival_time, j.job_id))
        if self.tracked_range is not None:
            start, end = self.tracked_range
            if not (0 <= start < end <= len(self.jobs)):
                raise ConfigurationError(
                    f"tracked_range {self.tracked_range} out of bounds for {len(self.jobs)} jobs"
                )
        if self.tracked_job_ids is not None:
            known = {job.job_id for job in self.jobs}
            missing = [i for i in self.tracked_job_ids if i not in known]
            if missing:
                raise ConfigurationError(
                    f"tracked_job_ids reference jobs not in the trace: {missing}"
                )

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    # ------------------------------------------------------------------

    def fresh_jobs(self) -> List[Job]:
        """Jobs with reset dynamic state, safe to hand to a new simulation."""
        return [job.copy_static() for job in self.jobs]

    def tracked_ids(self) -> List[int]:
        """Ids of the jobs whose JCT/responsiveness the experiment reports."""
        if self.tracked_job_ids is not None:
            return list(self.tracked_job_ids)
        if self.tracked_range is None:
            return [job.job_id for job in self.jobs]
        start, end = self.tracked_range
        return [job.job_id for job in self.jobs[start:end]]

    # ------------------------------------------------------------------
    # Aggregate statistics (used in tests and for sanity-checking generators)
    # ------------------------------------------------------------------

    def subset(self, max_jobs: int) -> "Trace":
        """First ``max_jobs`` jobs of the trace (used to scale experiments down)."""
        if max_jobs < 1:
            raise ConfigurationError("max_jobs must be >= 1")
        jobs = [job.copy_static() for job in self.jobs[:max_jobs]]
        return Trace(jobs=jobs, name=f"{self.name}-first{max_jobs}")
