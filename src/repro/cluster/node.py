"""Node and GPU records that make up the cluster.

A :class:`Node` holds fixed hardware facts (GPU type, CPU cores, memory,
cross-node network bandwidth) plus mutable auxiliary resource accounting used
by resource-sensitive schedulers such as Synergy.
Per-GPU assignment state lives in :class:`~repro.core.cluster_state.ClusterState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.gpu_types import GPUType, get_gpu_type
from repro.core.exceptions import AllocationError, ConfigurationError


@dataclass
class GPU:
    """One accelerator in the cluster.

    ``gpu_id`` is a cluster-global identifier; ``local_gpu_id`` is the index of
    the GPU within its node.
    """

    gpu_id: int
    node_id: int
    local_gpu_id: int
    gpu_type: GPUType
    job_id: Optional[int] = None

    @property
    def is_free(self) -> bool:
        return self.job_id is None

    @property
    def state(self) -> str:
        """Either ``"free"`` or ``"running"``, matching the Blox GPU table."""
        return "free" if self.is_free else "running"


@dataclass
class Node:
    """A server in the cluster."""

    node_id: int
    num_gpus: int
    gpu_type_name: str = "v100"
    cpu_cores: float = 32.0
    mem_gb: float = 244.0
    network_bw_gbps: float = 10.0
    failed: bool = False
    cpu_allocated: float = 0.0
    mem_allocated: float = 0.0
    _cpu_by_job: dict = field(default_factory=dict)
    _mem_by_job: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError(f"node {self.node_id} has {self.num_gpus} GPUs")

    @property
    def gpu_type(self) -> GPUType:
        return get_gpu_type(self.gpu_type_name)

    @property
    def cpu_free(self) -> float:
        return self.cpu_cores - self.cpu_allocated

    @property
    def mem_free(self) -> float:
        return self.mem_gb - self.mem_allocated

    def allocate_aux(self, job_id: int, cpus: float, mem_gb: float) -> None:
        """Reserve CPU cores and memory for a job (Synergy-style accounting).

        The reservation is additive per job so repeated launches on the same
        node accumulate, and :meth:`release_aux` returns exactly what was taken.
        """
        if cpus < 0 or mem_gb < 0:
            raise AllocationError("auxiliary resource demands must be non-negative")
        self.cpu_allocated += cpus
        self.mem_allocated += mem_gb
        self._cpu_by_job[job_id] = self._cpu_by_job.get(job_id, 0.0) + cpus
        self._mem_by_job[job_id] = self._mem_by_job.get(job_id, 0.0) + mem_gb

    def release_aux(self, job_id: int) -> None:
        """Release all CPU/memory previously reserved for ``job_id`` on this node."""
        self.cpu_allocated -= self._cpu_by_job.pop(job_id, 0.0)
        self.mem_allocated -= self._mem_by_job.pop(job_id, 0.0)
        # Guard against floating point drift ever producing tiny negatives.
        self.cpu_allocated = max(0.0, self.cpu_allocated)
        self.mem_allocated = max(0.0, self.mem_allocated)

    def aux_allocation(self, job_id: int) -> tuple:
        """Return ``(cpus, mem_gb)`` currently reserved for a job on this node."""
        return self._cpu_by_job.get(job_id, 0.0), self._mem_by_job.get(job_id, 0.0)

    def aux_job_ids(self) -> List[int]:
        """Ids of jobs holding any CPU/memory reservation on this node, sorted."""
        return sorted(set(self._cpu_by_job) | set(self._mem_by_job))

    def aux_allocations(self) -> Dict[int, tuple]:
        """All per-job ``(cpus, mem_gb)`` reservations on this node."""
        return {job_id: self.aux_allocation(job_id) for job_id in self.aux_job_ids()}

    def clone(self) -> "Node":
        """Deep copy built from public APIs (used by cluster snapshots)."""
        new_node = Node(
            node_id=self.node_id,
            num_gpus=self.num_gpus,
            gpu_type_name=self.gpu_type_name,
            cpu_cores=self.cpu_cores,
            mem_gb=self.mem_gb,
            network_bw_gbps=self.network_bw_gbps,
            failed=self.failed,
        )
        for job_id, (cpus, mem_gb) in self.aux_allocations().items():
            new_node.allocate_aux(job_id, cpus, mem_gb)
        return new_node
