"""Bandwidth-aware intra-node placement (Blox §5.3, Table 4).

Within a server, GPU pairs are connected by NVLink links of different widths;
on a p3.8xlarge the "diagonal" pairs enjoy roughly double the bandwidth of the
others.  For multi-GPU single-node jobs this policy picks the subset of free
GPUs that maximises the aggregate pairwise bandwidth; the baseline mode picks a
(seeded) random subset, matching the "Random" row of Table 4.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job
from repro.policies.placement.base import AvailabilityView, BasePlacementPolicy

BANDWIDTH_AWARE = "bandwidth-aware"
RANDOM = "random"


class IntraNodeBandwidthPlacement(BasePlacementPolicy):
    """Consolidated placement with explicit intra-node GPU selection."""

    def __init__(self, mode: str = BANDWIDTH_AWARE, seed: int = 0) -> None:
        if mode not in (BANDWIDTH_AWARE, RANDOM):
            raise ConfigurationError(
                f"mode must be '{BANDWIDTH_AWARE}' or '{RANDOM}', got {mode!r}"
            )
        self.mode = mode
        self.name = f"intra-node-{mode}"
        self._rng = random.Random(seed)

    def select_gpus(
        self,
        job: Job,
        demand: int,
        view: AvailabilityView,
        cluster_state: ClusterState,
    ) -> Optional[List[int]]:
        node_id = view.best_fit(demand)
        if node_id is None:
            # Fall back to plain consolidation across nodes; intra-node link
            # choice is irrelevant once the job spans servers.
            return self._take_consolidated(demand, view)

        node = cluster_state.node(node_id)
        free_gpus = view.free_on_node(node_id)
        free_local = [g.local_gpu_id for g in free_gpus]
        by_local = {g.local_gpu_id: g.gpu_id for g in free_gpus}

        if demand == 1:
            chosen_local = [free_local[0]]
        elif self.mode == BANDWIDTH_AWARE:
            chosen_local = node.topology.best_subset(free_local, demand)
        else:
            chosen_local = self._rng.sample(free_local, demand)
        return [by_local[local] for local in chosen_local]
