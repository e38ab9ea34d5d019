"""The automatic scheduler synthesizer (Blox §5.2 and Appendix A)."""

from repro.synthesizer.objectives import Objective, AverageJct, AverageResponsiveness, CombinedObjective
from repro.synthesizer.auto_scheduler import AutoSchedulerSynthesizer

__all__ = [
    "Objective",
    "AverageJct",
    "AverageResponsiveness",
    "CombinedObjective",
    "AutoSchedulerSynthesizer",
]
