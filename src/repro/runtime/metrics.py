"""Deployment-path metric collection.

In a real Blox deployment applications push arbitrary key-value metrics into
their node's WorkerManager (via :class:`WorkerMetricsCollector`), and the
CentralScheduler's metric-collection abstraction aggregates the per-node
stores each round over RPC (``pull_metrics``).  This module bridges those two
halves into the simulator's :class:`~repro.core.abstractions.MetricCollector`
contract so the same scheduling loop drives metric collection on both paths:

* the *application side* is stood in for by one batched push of each running
  job's scalar metrics (work done, plus whatever the execution model
  published into ``job.metrics``) to the job's *reporting worker* -- the
  first node of its lease assignment -- a node-local call, exactly like a
  real training process talking to its local daemon;
* the *scheduler side* pulls the **delta** (entries written since the last
  pull) over the RPC channel from the workers that host a reporting job this
  round -- the scheduler knows who those are from the leases it granted, so
  it never polls a worker that has nothing new -- and merges what came back
  into one cluster-wide view that policies and experiments can read.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.abstractions import MetricCollector
from repro.core.cluster_state import ClusterState
from repro.core.job_state import JobState
from repro.runtime.lease import SCHEDULER_ENDPOINT, _LeaseManagerBase
from repro.runtime.rpc import InMemoryRpcChannel
from repro.runtime.worker_manager import WorkerManager


class WorkerMetricsAggregator(MetricCollector):
    """Aggregates WorkerManager metric stores through the collector contract.

    Reads the lease manager's *live* worker registry and lease assignments,
    so membership changes mid-run are picked up automatically: a new node is
    pulled from the first round it hosts a reporting job, a departed node
    stops (entries it had not shipped yet are lost with it).  Pull calls are
    real RPCs (they bill the scheduler endpoint between lease rounds) but are
    excluded from the per-call log, which is reserved for lease traffic.
    """

    name = "worker-metrics"

    def __init__(
        self,
        channel: InMemoryRpcChannel,
        lease_manager: _LeaseManagerBase,
        keys: Sequence[str] = ("loss", "throughput"),
    ) -> None:
        self.channel = channel
        self.workers = lease_manager.workers
        #: job id -> lease assignment, whose ``node_ids`` the launcher grants
        #: sorted: ``node_ids[0]`` is what ``cluster_state.nodes_for_job``
        #: would rebuild and sort per job per round.
        self.assignments = lease_manager.assignments
        self.keys: Tuple[str, ...] = tuple(keys)
        #: Last-known metrics per job, merged from the pulled deltas; jobs
        #: keep their final values after they finish (their worker store is
        #: cleared, the aggregate is not).
        self.latest: Dict[int, Dict[str, object]] = {}
        self.pull_rounds = 0

    def collect(
        self,
        job_state: JobState,
        cluster_state: ClusterState,
        current_time: float,
    ) -> None:
        workers = self.workers
        assignments = self.assignments
        keys = self.keys
        # Application side: each running job reports to its reporting worker.
        reporting: Dict[int, WorkerManager] = {}
        for job in job_state.running_jobs():
            job_id = job.job_id
            assignment = assignments.get(job_id)
            if assignment is None:
                continue
            node_id = assignment.node_ids[0]
            worker = workers.get(node_id)
            if worker is None:
                continue
            payload: Dict[str, object] = {"work_done": job.work_done}
            metrics = job.metrics
            for key in keys:
                if key in metrics:
                    payload[key] = metrics[key]
            worker.push_metrics(job_id, payload)
            reporting[node_id] = worker

        # Scheduler side: pull the delta of every worker that was just
        # written to and merge it.  ``latest`` copies the values out of the
        # reply, which the channel may also hold in its dedup cache.
        call = self.channel.call
        latest = self.latest
        for node_id in sorted(reporting):
            delta = call(
                reporting[node_id].endpoint_name,
                "pull_metrics",
                caller=SCHEDULER_ENDPOINT,
                log=False,
            )
            for job_id, values in delta.items():
                entry = latest.get(job_id)
                if entry is None:
                    entry = latest[job_id] = {}
                entry.update(values)
        self.pull_rounds += 1

    def latest_for(self, job_id: int) -> Dict[str, object]:
        return dict(self.latest.get(job_id, {}))
