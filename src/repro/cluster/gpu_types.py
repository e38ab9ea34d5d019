"""GPU type catalogue.

The Blox case studies compare placement policies across hardware generations
(P100 clusters with 100 Gbps interconnects vs. V100 clusters with 10 Gbps).
Each :class:`GPUType` carries a relative compute factor (normalised to the
V100) used by the execution model and by heterogeneity-aware policies (Gavel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.exceptions import ConfigurationError


@dataclass(frozen=True)
class GPUType:
    """A GPU model with its relative training throughput.

    ``compute_factor`` is the throughput of this GPU relative to a V100 for a
    typical training workload; the per-iteration time of a job running on this
    GPU type is its profiled V100 iteration time divided by this factor.
    """

    name: str
    compute_factor: float
    memory_gb: float
    #: The lowercase name: the cluster's per-type index key, derived once.
    key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", self.name.lower())
        if self.compute_factor <= 0:
            raise ConfigurationError(f"compute_factor must be > 0, got {self.compute_factor}")
        if self.memory_gb <= 0:
            raise ConfigurationError(f"memory_gb must be > 0, got {self.memory_gb}")


#: Catalogue of GPU models used throughout the paper's experiments.
GPU_TYPES: Dict[str, GPUType] = {
    "k80": GPUType(name="k80", compute_factor=0.30, memory_gb=12.0),
    "p100": GPUType(name="p100", compute_factor=0.60, memory_gb=16.0),
    "v100": GPUType(name="v100", compute_factor=1.00, memory_gb=16.0),
    "a100": GPUType(name="a100", compute_factor=2.20, memory_gb=40.0),
}


def get_gpu_type(name: str) -> GPUType:
    """Look up a GPU type by name (case insensitive).

    Raises :class:`~repro.core.exceptions.ConfigurationError` for unknown names
    so misconfigured experiments fail loudly rather than silently defaulting.
    """
    key = name.lower()
    if key not in GPU_TYPES:
        known = ", ".join(sorted(GPU_TYPES))
        raise ConfigurationError(f"unknown GPU type {name!r}; known types: {known}")
    return GPU_TYPES[key]
