"""Metric collection abstraction instances.

Blox's metric collection abstraction aggregates server-centric and job-centric
statistics for other modules to consume.  The simulator pushes application
metrics (loss, iteration time, throughput) into each job's metrics dictionary;
the collectors here aggregate cluster-level time series and per-job histories
used by experiments and by policies such as Optimus (loss) and Themis (fair
share estimates).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

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


@dataclass
class ApplicationMetricCollector(MetricCollector):
    """Keeps a bounded history of selected application metrics per job.

    Policies that need a trend rather than the latest value (e.g. Optimus'
    convergence estimation or Pollux's goodput) read from these histories.
    Each series is a ``deque(maxlen=max_history)``, so appending once the
    window is full costs O(1) instead of the O(n) front-trim a list needs.
    """

    keys: tuple = ("loss", "throughput")
    max_history: int = 100
    name: str = "application-metric-collector"
    history: Dict[int, Dict[str, Deque[float]]] = field(default_factory=dict)

    def _new_series(self) -> Deque[float]:
        return deque(maxlen=self.max_history)

    def collect(self, job_state: JobState, cluster_state: ClusterState, current_time: float) -> None:
        for job in job_state.running_jobs():
            job_history = self.history.setdefault(
                job.job_id, {k: self._new_series() for k in self.keys}
            )
            for key in self.keys:
                if key in job.metrics:
                    series = job_history.get(key)
                    if series is None:
                        series = job_history[key] = self._new_series()
                    series.append(float(job.metrics[key]))

    def latest(self, job_id: int, key: str, default: float = 0.0) -> float:
        series = self.history.get(job_id, {}).get(key)
        return series[-1] if series else default
