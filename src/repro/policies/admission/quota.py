"""Per-user quota admission, one of the "possible instances" listed in Table 5."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence

from repro.core.abstractions import AdmissionPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState

#: GPUs each user may have admitted at once.
USER_QUOTA = 16


class UserQuotaAdmission(AdmissionPolicy):
    """Limit the number of GPUs each user may have admitted at once.

    Every user has the same quota, :data:`USER_QUOTA` GPUs.  Jobs exceeding
    it wait in a per-user FIFO queue and are released as that user's earlier
    jobs finish.

    A job whose gang is *larger than its user's whole quota* can never be
    admitted no matter how many earlier jobs finish; queueing it would wait
    forever (and, with such a job in the queue, the simulator's stall detector
    never fires -- the livelock noted in the ROADMAP).  Such jobs are rejected
    at submission instead: they are tracked in the registry with status
    ``FAILED`` and ``admission_rejected`` set, so runs terminate
    and the rejection is observable in the results.
    """

    name = "user-quota"

    def __init__(self) -> None:
        self._queues: Dict[str, Deque[Job]] = {}
        #: Ids of jobs rejected because their gang exceeds the user quota.
        self.rejected_job_ids: List[int] = []

    def pending_jobs(self) -> List[Job]:
        pending: List[Job] = []
        for queue in self._queues.values():
            pending.extend(queue)
        return sorted(pending, key=lambda j: j.job_id)

    def _user_usage(self, job_state: JobState) -> Dict[str, int]:
        usage: Dict[str, int] = {}
        for job in job_state.active_jobs():
            usage[job.user] = usage.get(job.user, 0) + job.num_gpus
        return usage

    def accept(
        self,
        new_jobs: Sequence[Job],
        cluster_state: ClusterState,
        job_state: JobState,
    ) -> List[Job]:
        for job in new_jobs:
            if job.num_gpus > USER_QUOTA:
                # Admission-reject: this gang can never fit the user's quota,
                # so holding it would livelock.  Track it so the registry (and
                # the simulator's termination checks) see a terminal job.
                job_state.track(job)
                job.status = JobStatus.FAILED
                job.admission_rejected = "gang_exceeds_user_quota"
                self.rejected_job_ids.append(job.job_id)
                continue
            job.status = JobStatus.WAITING_ADMISSION
            self._queues.setdefault(job.user, deque()).append(job)

        usage = self._user_usage(job_state)
        accepted: List[Job] = []
        for user in sorted(self._queues):
            queue = self._queues[user]
            used = usage.get(user, 0)
            while queue and used + queue[0].num_gpus <= USER_QUOTA:
                job = queue.popleft()
                used += job.num_gpus
                accepted.append(job)
        return sorted(accepted, key=lambda j: j.arrival_time)
