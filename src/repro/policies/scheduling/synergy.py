"""Synergy: resource-sensitive scheduling.

Synergy observes that DNN jobs differ widely in how much CPU and host memory
they need per GPU, and that allocating these auxiliary resources blindly (a
GPU-proportional share) throttles CPU-hungry jobs.  In Blox terms Synergy
modifies the scheduling policy (resource-sensitive FIFO ordering) and the
placement policy (which performs the CPU/memory-aware packing -- see
:class:`repro.policies.placement.synergy_placement.SynergyPlacement`).  The
scheduling side here orders jobs FIFO but annotates each entry with the job's
auxiliary demands so experiments can inspect them.
"""

from __future__ import annotations

from typing import List

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex, arrival_key


class SynergyScheduling(SchedulingPolicy):
    """Resource-sensitive FIFO ordering used by both Synergy modes."""

    name = "synergy"
    # Explicit fast-forward contract (C101): arrival-ordered like FIFO, but
    # the per-job demand metrics are refreshed on every invocation.
    steady_state_safe = False

    def __init__(self) -> None:
        self._index = RunnablePriorityIndex(idle_key=arrival_key)

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        self._index.bind(job_state)
        ordered = self._index.ordered(running_key=arrival_key)
        for job in ordered:
            job.metrics["cpu_demand"] = job.cpu_demand_per_gpu * job.num_gpus
            job.metrics["mem_demand"] = job.mem_demand_per_gpu * job.num_gpus
        return self._index.gang_entries(ordered)
