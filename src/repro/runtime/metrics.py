"""Deployment-path metric collection, at a job's epoch boundaries.

In a real Blox deployment applications push arbitrary key-value metrics into
their node's WorkerManager (via :class:`WorkerMetricsCollector`), and the
CentralScheduler aggregates the per-node stores over RPC (``pull_metrics``).
Between entering and leaving RUNNING a job's reported progress is a pure
function of the rounds elapsed (the execution model's epoch), so the two
halves meet when a job *leaves* RUNNING -- suspension, eviction or
completion -- and the run keeps deferring progress as in simulation:

* the *application side* is one batched, node-local push of the job's
  settled scalar metrics (work done, plus the reported keys of
  ``job.metrics``) to its *reporting worker*, the first node
  of its lease when it entered RUNNING, as a training process would talk
  to its local daemon;
* the *scheduler side* then pulls that worker's **delta** (entries written
  since its last pull) over the RPC channel, before the prune step's
  ``job_finished`` clears the store, into one cluster-wide view.  A read of
  a job that is still running settles its epoch instead.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.job import Job, JobStatus
from repro.core.job_state import JobStateObserver
from repro.runtime.lease import SCHEDULER_ENDPOINT, _LeaseManagerBase
from repro.runtime.rpc import InMemoryRpcChannel

#: The application metrics a job reports besides its work done.
REPORTED_KEYS = ("loss", "throughput")


class WorkerMetricsAggregator(JobStateObserver):
    """Aggregates WorkerManager metric stores at job status transitions.

    Reads the lease manager's *live* worker registry and assignments: a job
    whose reporting node left before the job stopped running loses what it
    had not shipped with the node.  Pulls are real RPCs, billed to the
    scheduler endpoint.  A job is read through its progress fields and
    ``job.metrics``, so a deferred one settles on the read.
    """

    def __init__(
        self,
        channel: InMemoryRpcChannel,
        lease_manager: _LeaseManagerBase,
    ) -> None:
        self.channel = channel
        self.workers = lease_manager.workers
        #: job id -> lease assignment; the launcher grants ``node_ids``
        #: sorted, so ``node_ids[0]`` is ``cluster_state.nodes_for_job``'s first.
        self.assignments = lease_manager.assignments
        #: job id -> (running job, reporting node), taken when the job enters
        #: RUNNING: a preemption revokes the lease before the status write.
        self.reporting: Dict[int, Tuple[Job, int]] = {}
        #: Metrics merged from the pulled deltas: a job keeps its values from
        #: the moment it left RUNNING (its worker store is cleared, this is not).
        self._pulled: Dict[int, Dict[str, object]] = {}
        self.pulls = 0

    def on_status_change(self, job: Job, old: Optional[JobStatus], new: JobStatus) -> None:
        if new is JobStatus.RUNNING:
            assignment = self.assignments.get(job.job_id)
            if assignment is not None:
                self.reporting[job.job_id] = (job, assignment.node_ids[0])
        elif old is JobStatus.RUNNING and job.job_id in self.reporting:
            self.collect(*self.reporting.pop(job.job_id))

    def collect(self, job: Job, node_id: int) -> None:
        """The job left RUNNING: it pushes to its worker, whose delta is pulled and merged."""
        worker = self.workers.get(node_id)
        if worker is None:
            return
        worker.push_metrics(job.job_id, self._report(job))
        delta = self.channel.call(
            worker.endpoint_name, "pull_metrics", caller=SCHEDULER_ENDPOINT
        )
        for job_id, values in delta.items():  # copied: the dedup cache may hold the reply
            self._pulled.setdefault(job_id, {}).update(values)
        self.pulls += 1

    def _report(self, job: Job) -> Dict[str, object]:
        """What the job's training process reports now: its settled metrics."""
        report: Dict[str, object] = {"work_done": job.work_done}
        metrics = job.metrics
        for key in REPORTED_KEYS:
            if key in metrics:
                report[key] = metrics[key]
        return report

    def latest_for(self, job_id: int) -> Dict[str, object]:
        """The job's last-known metrics; a running job's as of now."""
        values = dict(self._pulled.get(job_id, {}))
        if job_id in self.reporting:
            values.update(self._report(self.reporting[job_id][0]))
        return values

    @property
    def latest(self) -> Dict[int, Dict[str, object]]:
        """job id -> :meth:`latest_for`, for every job that reported or is running."""
        job_ids = {**dict.fromkeys(self._pulled), **dict.fromkeys(self.reporting)}
        return {job_id: self.latest_for(job_id) for job_id in job_ids}
