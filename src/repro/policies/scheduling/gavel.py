"""Gavel: heterogeneity-aware Least Attained Service.

Gavel generalises scheduling policies to heterogeneous clusters by normalising
each job's resource usage by its throughput on the accelerator type it runs
on: a job that accumulated an hour on a slow K80 has attained less *effective*
service than one that ran an hour on a V100.  The policy orders jobs by this
normalised attained service.  A type's throughput is its
:attr:`~repro.cluster.gpu_types.GPUType.compute_factor`; a running gang is
normalised by its slowest held type, the allocation record's factor, which
is the one the execution model runs it at.

Simplification versus the full Gavel optimiser: the original computes a
fractional allocation matrix via an LP over (job, accelerator-type) pairs and
round-robins within rounds; on the homogeneous clusters the paper evaluates,
that machinery reduces to LAS ordering, which is what we implement (together
with the throughput normalisation that distinguishes Gavel on heterogeneous
clusters).

Hot-path structure: the best compute factor present in the cluster is
computed once per round (not once per job), and the priority ordering is
maintained incrementally -- idle jobs' normalised service is frozen (service
only accrues while RUNNING), so only the running tier is re-sorted each round.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.cluster.gpu_types import GPU_TYPES
from repro.policies.scheduling.priority_index import RunnablePriorityIndex

#: The factor an unplaced job is normalised by when no healthy node is left.
_DEFAULT_FACTOR = GPU_TYPES["v100"].compute_factor


class GavelScheduling(SchedulingPolicy):
    """Heterogeneity-aware LAS ordering with per-type throughput normalisation."""

    name = "gavel"

    #: Gang policy whose ``schedule`` is free of side effects: while every
    #: active job is running with its requested gang, re-ordering cannot
    #: change the placement outcome, so steady-state rounds may be skipped.
    steady_state_safe = True

    def __init__(self) -> None:
        #: Compute factor of the fastest GPU type on a healthy node: what an
        #: unplaced job would run at if launched now.
        self._best_factor = _DEFAULT_FACTOR
        self._index = RunnablePriorityIndex(idle_key=self._idle_key)

    def _refresh_present_types(self, cluster_state: ClusterState) -> None:
        healthy = (node for node in cluster_state.nodes.values() if not node.failed)
        best = max((node.gpu_type.compute_factor for node in healthy), default=_DEFAULT_FACTOR)
        if best != self._best_factor:
            self._best_factor = best
            # Idle keys normalise by the best present type; a change
            # invalidates them all.
            self._index.rebuild()

    @staticmethod
    def _priority_key(job: Job, factor: float):
        """(normalised service, arrival, id) -- the single ordering formula."""
        return (job.attained_service * factor, job.arrival_time, job.job_id)

    def _idle_key(self, job: Job):
        return self._priority_key(job, self._best_factor)

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterator[ScheduleEntry]:
        self._index.bind(job_state)
        self._refresh_present_types(cluster_state)

        def running_key(job: Job):
            # A gang runs at its slowest held type: the allocation record's factor.
            allocation = cluster_state.allocation(job.job_id)
            factor = allocation.compute_factor if allocation is not None else self._best_factor
            return self._priority_key(job, factor)

        return self._index.gang_entries(self._index.ordered(running_key=running_key))
