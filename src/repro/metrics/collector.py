"""Metric collection abstraction instances.

Blox's metric collection abstraction aggregates server-centric and job-centric
statistics for other modules to consume.  The simulator pushes application
metrics (loss, iteration time, throughput) into each job's metrics dictionary;
the collector here aggregates a cluster-level time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.abstractions import MetricCollector
from repro.core.cluster_state import ClusterState
from repro.core.job_state import JobState


@dataclass
class UtilizationCollector(MetricCollector):
    """Records a per-round time series of cluster utilisation and queue length."""

    name: str = "utilization-collector"
    timestamps: List[float] = field(default_factory=list)
    utilization: List[float] = field(default_factory=list)
    running_jobs: List[int] = field(default_factory=list)
    queued_jobs: List[int] = field(default_factory=list)

    def collect(self, job_state: JobState, cluster_state: ClusterState, current_time: float) -> None:
        self.timestamps.append(current_time)
        self.utilization.append(cluster_state.utilization())
        self.running_jobs.append(len(job_state.running_jobs()))
        active = len(job_state.active_jobs())
        self.queued_jobs.append(active - len(job_state.running_jobs()))
