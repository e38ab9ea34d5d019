"""Cluster substrate: GPU types, nodes and cluster builders.

Only the dependency-free building blocks are re-exported here;
:mod:`repro.cluster.builder` and :mod:`repro.cluster.failures` depend on
:class:`repro.core.cluster_state.ClusterState` (which itself is built from the
node types below), so they are imported lazily by callers to avoid an import
cycle between the two packages.
"""

from repro.cluster.gpu_types import GPUType, GPU_TYPES, get_gpu_type
from repro.cluster.node import GPU, Node

__all__ = [
    "GPUType",
    "GPU_TYPES",
    "get_gpu_type",
    "GPU",
    "Node",
]
