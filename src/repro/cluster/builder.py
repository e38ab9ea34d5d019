"""Helpers to construct clusters matching the paper's experimental setups.

The Blox evaluation uses homogeneous clusters of 4-GPU servers (p3.8xlarge-like
V100 nodes with 10 Gbps cross-node links, or P100 nodes with 100 Gbps links as
in the original Tiresias study).  :func:`build_cluster` builds a
:class:`~repro.core.cluster_state.ClusterState` from a simple spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import Node
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of a homogeneous cluster."""

    num_nodes: int
    gpus_per_node: int = 4
    gpu_type: str = "v100"
    network_bw_gbps: float = 10.0
    cpu_cores_per_node: float = 32.0
    mem_gb_per_node: float = 244.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.gpus_per_node < 1:
            raise ConfigurationError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node


def build_cluster(
    num_nodes: int,
    gpus_per_node: int = 4,
    gpu_type: str = "v100",
    network_bw_gbps: float = 10.0,
    cpu_cores_per_node: float = 32.0,
    mem_gb_per_node: float = 244.0,
) -> ClusterState:
    """Build a homogeneous cluster.

    The default (4x V100 per node, 10 Gbps network) matches the main setup in
    the paper; the Tiresias placement study instead uses P100 nodes with
    100 Gbps links (pass ``gpu_type="p100"`` and ``network_bw_gbps=100``).
    """
    cluster = ClusterState()
    for node_id in range(num_nodes):
        cluster.add_node(
            Node(
                node_id=node_id,
                num_gpus=gpus_per_node,
                gpu_type_name=gpu_type,
                cpu_cores=cpu_cores_per_node,
                mem_gb=mem_gb_per_node,
                network_bw_gbps=network_bw_gbps,
            )
        )
    return cluster


def build_cluster_from_spec(spec: ClusterSpec) -> ClusterState:
    """Build a cluster from a :class:`ClusterSpec`."""
    return build_cluster(
        num_nodes=spec.num_nodes,
        gpus_per_node=spec.gpus_per_node,
        gpu_type=spec.gpu_type,
        network_bw_gbps=spec.network_bw_gbps,
        cpu_cores_per_node=spec.cpu_cores_per_node,
        mem_gb_per_node=spec.mem_gb_per_node,
    )
