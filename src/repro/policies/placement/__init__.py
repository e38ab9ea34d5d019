"""Job placement policies: mapping prioritised jobs to concrete GPUs."""

from functools import partial

from repro.policies.placement.base import BasePlacementPolicy, AvailabilityView
from repro.policies.placement.first_free import FirstFreePlacement
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.placement.tiresias_placement import TiresiasPlacement
from repro.policies.placement.profile_placement import ProfilePlacement
from repro.policies.placement.synergy_placement import SynergyPlacement

__all__ = [
    "BasePlacementPolicy",
    "AvailabilityView",
    "FirstFreePlacement",
    "ConsolidatedPlacement",
    "TiresiasPlacement",
    "ProfilePlacement",
    "SynergyPlacement",
]

#: Placement-policy registry: name -> zero-argument factory, keyed by the
#: ``name`` the built instance reports.  Synergy registers both of its modes
#: (Fig. 5 compares them).
PLACEMENT_POLICIES = {
    FirstFreePlacement.name: FirstFreePlacement,
    ConsolidatedPlacement.name: ConsolidatedPlacement,
    TiresiasPlacement.name: TiresiasPlacement,
    ProfilePlacement.name: ProfilePlacement,
    "synergy-tune": SynergyPlacement,
    "synergy-proportional": partial(SynergyPlacement, mode="proportional"),
}
