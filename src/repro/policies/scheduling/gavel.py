"""Gavel: heterogeneity-aware Least Attained Service.

Gavel generalises scheduling policies to heterogeneous clusters by normalising
each job's resource usage by its throughput on the accelerator type it runs
on: a job that accumulated an hour on a slow K80 has attained less *effective*
service than one that ran an hour on a V100.  The policy orders jobs by this
normalised attained service and records the GPU type on which each job runs
fastest on the :class:`~repro.core.abstractions.ScheduleEntry` so placement
can prefer it.

Simplification versus the full Gavel optimiser: the original computes a
fractional allocation matrix via an LP over (job, accelerator-type) pairs and
round-robins within rounds; on the homogeneous clusters the paper evaluates,
that machinery reduces to LAS ordering, which is what we implement (together
with the throughput normalisation that distinguishes Gavel on heterogeneous
clusters).

Hot-path structure: the set of GPU types present in the cluster is computed
once per round (not once per job), each job's preferred type is memoized
against that set, and the priority ordering is maintained incrementally --
idle jobs' normalised service is frozen (service only accrues while RUNNING),
so only the running tier is re-sorted each round.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.cluster.gpu_types import GPU_TYPES
from repro.policies.scheduling.priority_index import RunnablePriorityIndex


class GavelScheduling(SchedulingPolicy):
    """Heterogeneity-aware LAS ordering with per-type throughput normalisation."""

    name = "gavel"

    #: Gang policy whose ``schedule`` is free of side effects: while every
    #: active job is running with its requested gang, re-ordering cannot
    #: change the placement outcome, so steady-state rounds may be skipped.
    steady_state_safe = True

    def __init__(self) -> None:
        self._present_types: FrozenSet[str] = frozenset()
        self._best_type_by_job: Dict[int, Optional[str]] = {}
        self._index = RunnablePriorityIndex(
            idle_key=self._idle_key,
            on_rebuild=self._best_type_by_job.clear,
            on_transition=self._on_transition,
        )

    def _on_transition(self, job: Job, old) -> None:
        # old=None means the job was (re)tracked: a replacement object may
        # carry different per-type throughputs, so its memoized type must go;
        # a finished job's goes with it (nothing outlives its job).
        if old is None or job.is_finished:
            self._best_type_by_job.pop(job.job_id, None)

    @staticmethod
    def job_throughput_on(job: Job, gpu_type_name: str) -> float:
        """Relative throughput of the job on the given GPU type.

        Jobs may carry profiled per-type throughputs (``per_gpu_throughput``);
        otherwise the type's generic compute factor is used.
        """
        if gpu_type_name in job.per_gpu_throughput:
            return max(1e-9, float(job.per_gpu_throughput[gpu_type_name]))
        gpu_type = GPU_TYPES.get(gpu_type_name)
        return gpu_type.compute_factor if gpu_type is not None else 1.0

    # ------------------------------------------------------------------
    # Cached preferred-type lookup
    # ------------------------------------------------------------------

    @staticmethod
    def present_gpu_types(cluster_state: ClusterState) -> FrozenSet[str]:
        """GPU types available on healthy nodes (one cluster scan per round)."""
        return frozenset(
            node.gpu_type_name for node in cluster_state.nodes.values() if not node.failed
        )

    def _refresh_present_types(self, cluster_state: ClusterState) -> None:
        present = self.present_gpu_types(cluster_state)
        if present != self._present_types:
            self._present_types = present
            self._best_type_by_job.clear()
            # Idle keys for unplaced jobs normalise by the best present type;
            # a membership change invalidates them all.
            self._index.rebuild()

    def _cached_best_type(self, job: Job) -> Optional[str]:
        if job.job_id in self._best_type_by_job:
            return self._best_type_by_job[job.job_id]
        if not self._present_types:
            best = None
        else:
            best = max(
                self._present_types, key=lambda t: self.job_throughput_on(job, t)
            )
        self._best_type_by_job[job.job_id] = best
        return best

    def best_gpu_type(self, job: Job, cluster_state: ClusterState) -> Optional[str]:
        """The GPU type present in the cluster on which this job runs fastest."""
        present = self.present_gpu_types(cluster_state)
        if not present:
            return None
        return max(present, key=lambda t: self.job_throughput_on(job, t))

    # ------------------------------------------------------------------
    # Priority keys
    # ------------------------------------------------------------------

    def _priority_key(self, job: Job, type_name: str):
        """(normalised service, arrival, id) -- the single ordering formula."""
        return (
            job.attained_service * self.job_throughput_on(job, type_name),
            job.arrival_time,
            job.job_id,
        )

    def _idle_key(self, job: Job):
        return self._priority_key(job, self._cached_best_type(job) or "v100")

    def normalised_service(self, job: Job, cluster_state: ClusterState) -> float:
        """Attained service scaled by the throughput of the GPUs the job used.

        Running jobs are normalised by their current GPU type; idle jobs by the
        best type available to them (their effective service if launched now).
        """
        gpus = cluster_state.gpus_for_job(job.job_id)
        if gpus:
            type_name = gpus[0].gpu_type.name
        else:
            type_name = self.best_gpu_type(job, cluster_state) or "v100"
        return job.attained_service * self.job_throughput_on(job, type_name)

    # ------------------------------------------------------------------

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterator[ScheduleEntry]:
        self._index.bind(job_state)
        self._refresh_present_types(cluster_state)

        def running_key(job: Job):
            gpus = cluster_state.gpus_for_job(job.job_id)
            if gpus:
                type_name = gpus[0].gpu_type.name
            else:
                type_name = self._cached_best_type(job) or "v100"
            return self._priority_key(job, type_name)

        entry_for = self._index.entry_for
        return (
            entry_for(job, job.num_gpus, self._cached_best_type(job))
            for job in self._index.ordered(running_key=running_key)
        )
