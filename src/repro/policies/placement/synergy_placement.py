"""Synergy's resource-sensitive placement.

Synergy schedules CPU cores and host memory alongside GPUs.  Two modes are
reproduced from the paper's Figure 5 experiment:

* ``proportional`` -- every job receives the GPU-proportional share of the
  node's CPUs and memory (a job using 1 of 4 GPUs gets a quarter of the CPUs),
  regardless of what the model actually needs.  CPU-hungry jobs are throttled.
* ``tune`` (Synergy-Tune) -- jobs are given their profiled CPU/memory demand
  whenever the node can supply it, with CPU-light jobs implicitly donating
  their unused share.

The requested per-GPU CPU/memory allocation travels on the placement decision;
the launch mechanism reserves it on the nodes and records the granted CPU
share with the allocation, which the execution model's rate reads.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job
from repro.policies.placement.base import AvailabilityView, BasePlacementPolicy

PROPORTIONAL = "proportional"
TUNE = "tune"


class SynergyPlacement(BasePlacementPolicy):
    """Consolidated placement plus CPU/memory allocation in one of two modes."""

    def __init__(self, mode: str = TUNE) -> None:
        if mode not in (PROPORTIONAL, TUNE):
            raise ConfigurationError(f"mode must be '{PROPORTIONAL}' or '{TUNE}', got {mode!r}")
        self.mode = mode
        self.name = f"synergy-{mode}"

    def select_gpus(
        self,
        job: Job,
        demand: int,
        view: AvailabilityView,
        cluster_state: ClusterState,
    ) -> Optional[List[int]]:
        return self._take_consolidated(demand, view)

    def aux_request(
        self, job: Job, gpu_ids: List[int], cluster_state: ClusterState
    ) -> Tuple[float, float]:
        """The per-GPU CPU/memory share the launcher should reserve."""
        if self.mode == TUNE:
            return job.cpu_demand_per_gpu, job.mem_demand_per_gpu
        node = cluster_state.node(cluster_state.gpu(gpu_ids[0]).node_id)
        return node.cpu_cores / node.num_gpus, node.mem_gb / node.num_gpus
