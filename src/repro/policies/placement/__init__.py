"""Job placement policies: mapping prioritised jobs to concrete GPUs."""

from repro.policies.placement.base import BasePlacementPolicy, AvailabilityView
from repro.policies.placement.first_free import FirstFreePlacement
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.placement.tiresias_placement import TiresiasPlacement
from repro.policies.placement.profile_placement import ProfilePlacement
from repro.policies.placement.synergy_placement import SynergyPlacement
from repro.policies.placement.intra_node import IntraNodeBandwidthPlacement

__all__ = [
    "BasePlacementPolicy",
    "AvailabilityView",
    "FirstFreePlacement",
    "ConsolidatedPlacement",
    "TiresiasPlacement",
    "ProfilePlacement",
    "SynergyPlacement",
    "IntraNodeBandwidthPlacement",
]

#: Placement-policy registry: name -> zero-argument factory.  The two
#: mode-parameterised placements register under their default mode's name
#: (the ``name`` a default-constructed instance reports).
PLACEMENT_POLICIES = {
    FirstFreePlacement.name: FirstFreePlacement,
    ConsolidatedPlacement.name: ConsolidatedPlacement,
    TiresiasPlacement.name: TiresiasPlacement,
    ProfilePlacement.name: ProfilePlacement,
    "synergy-tune": SynergyPlacement,
    "intra-node-bandwidth-aware": IntraNodeBandwidthPlacement,
}
