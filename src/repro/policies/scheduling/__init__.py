"""Job scheduling policies implemented on the Blox abstractions."""

from repro.policies.scheduling.fifo import FifoScheduling
from repro.policies.scheduling.las import LasScheduling
from repro.policies.scheduling.srtf import SrtfScheduling
from repro.policies.scheduling.tiresias import TiresiasScheduling
from repro.policies.scheduling.optimus import OptimusScheduling
from repro.policies.scheduling.gavel import GavelScheduling
from repro.policies.scheduling.pollux import PolluxScheduling
from repro.policies.scheduling.themis import ThemisScheduling
from repro.policies.scheduling.synergy import SynergyScheduling

__all__ = [
    "FifoScheduling",
    "LasScheduling",
    "SrtfScheduling",
    "TiresiasScheduling",
    "OptimusScheduling",
    "GavelScheduling",
    "PolluxScheduling",
    "ThemisScheduling",
    "SynergyScheduling",
]

#: Scheduling-policy registry: name -> zero-argument factory.  Policies are
#: stateful, so every run must build a fresh instance.  ``__all__`` stays the
#: class list; a test keeps the two in step.
SCHEDULING_POLICIES = {
    FifoScheduling.name: FifoScheduling,
    LasScheduling.name: LasScheduling,
    SrtfScheduling.name: SrtfScheduling,
    TiresiasScheduling.name: TiresiasScheduling,
    OptimusScheduling.name: OptimusScheduling,
    GavelScheduling.name: GavelScheduling,
    PolluxScheduling.name: PolluxScheduling,
    ThemisScheduling.name: ThemisScheduling,
    SynergyScheduling.name: SynergyScheduling,
}
