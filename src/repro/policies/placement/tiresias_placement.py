"""The Tiresias placement heuristic: consolidate only jobs with high tensor skew.

Tiresias observes that models whose parameter tensors are highly skewed in size
suffer most from network contention and therefore benefit from consolidation;
other jobs can be spread across servers to reduce fragmentation.  The heuristic
uses a skew threshold measured from the model; the paper's §4.3 shows that the
heuristic's accuracy (and hence the policy's benefit) depends on hardware and
on the workload mix, motivating the profile-based variant ``Tiresias+``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.cluster_state import ClusterState
from repro.core.job import Job
from repro.policies.placement.base import AvailabilityView, BasePlacementPolicy

#: Model skew above which the heuristic consolidates a job.
SKEW_THRESHOLD = 0.5


class TiresiasPlacement(BasePlacementPolicy):
    """Consolidate jobs whose model skew exceeds :data:`SKEW_THRESHOLD`; spread the rest."""

    name = "tiresias-placement"

    def wants_consolidation(self, job: Job) -> bool:
        """The skew-based heuristic's guess at whether the job is placement sensitive."""
        return job.skew > SKEW_THRESHOLD

    def select_gpus(
        self,
        job: Job,
        demand: int,
        view: AvailabilityView,
        cluster_state: ClusterState,
    ) -> Optional[List[int]]:
        if self.wants_consolidation(job):
            return self._take_consolidated(demand, view)
        return self._take_fragment_friendly(demand, view)
