"""Concrete, deterministic cluster events.

A :class:`ClusterEvent` is one fully-resolved mutation of cluster membership
at a known simulated time: every random choice was made at scenario-compile
time (see :mod:`repro.scenarios.spec`), so applying the same event stream to
the same cluster always produces the same state.  Events are applied by the
:class:`~repro.scenarios.timeline.TimelineClusterManager` from inside the
scheduling loop's cluster-management step; each ``apply`` returns the ids of
jobs whose allocation was revoked (the engine preempts the running ones so
the policies reschedule them).

Events are tolerant of membership drift: failing a node that was scaled in,
or recovering a node that is already healthy, is a no-op rather than an
error, so declarative timelines can reference nodes without tracking every
earlier event's effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cluster.node import Node
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError

__all__ = [
    "ClusterEvent",
    "NodeFailureEvent",
    "NodeRecoveryEvent",
    "ScaleOutEvent",
    "ScaleInEvent",
    "GpuUpgradeEvent",
]


@dataclass(frozen=True)
class ClusterEvent:
    """Base class: one membership change at simulated time ``time``."""

    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.time}")

    @property
    def kind(self) -> str:
        return type(self).__name__

    def apply(self, cluster_state: ClusterState) -> List[int]:
        """Mutate ``cluster_state``; returns ids of jobs losing their GPUs."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """JSON-safe declarative fields for the ``cluster`` trace kind.

        Only compile-time facts (which nodes, how many, what type) -- the
        apply-time consequences (evicted jobs) are recorded separately by
        the emitter, so a description never depends on cluster state.
        """
        return {}


@dataclass(frozen=True)
class NodeFailureEvent(ClusterEvent):
    """Mark nodes failed (crash, spot reclamation, maintenance entry)."""

    node_ids: Tuple[int, ...] = ()

    def describe(self) -> Dict[str, object]:
        return {"node_ids": list(self.node_ids)}

    def apply(self, cluster_state: ClusterState) -> List[int]:
        affected: List[int] = []
        for node_id in self.node_ids:
            if node_id not in cluster_state.nodes:
                continue
            if cluster_state.nodes[node_id].failed:
                continue
            for job_id in cluster_state.mark_node_failed(node_id):
                if job_id not in affected:
                    affected.append(job_id)
        return affected


@dataclass(frozen=True)
class NodeRecoveryEvent(ClusterEvent):
    """Bring previously failed nodes back into the schedulable pool."""

    node_ids: Tuple[int, ...] = ()

    def describe(self) -> Dict[str, object]:
        return {"node_ids": list(self.node_ids)}

    def apply(self, cluster_state: ClusterState) -> List[int]:
        for node_id in self.node_ids:
            if node_id in cluster_state.nodes:
                cluster_state.mark_node_recovered(node_id)
        return []


@dataclass(frozen=True)
class ScaleOutEvent(ClusterEvent):
    """Add freshly provisioned nodes (capacity scale-out, hetero drift).

    Node ids are assigned at apply time as the next unused ids, which is
    deterministic because the whole event stream is.
    """

    num_nodes: int = 1
    gpus_per_node: int = 4
    gpu_type: str = "v100"
    network_bw_gbps: float = 10.0
    cpu_cores_per_node: float = 32.0
    mem_gb_per_node: float = 244.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.gpus_per_node < 1:
            raise ConfigurationError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")

    def describe(self) -> Dict[str, object]:
        return {
            "num_nodes": self.num_nodes,
            "gpus_per_node": self.gpus_per_node,
            "gpu_type": self.gpu_type,
        }

    def apply(self, cluster_state: ClusterState) -> List[int]:
        next_id = max(cluster_state.nodes, default=-1) + 1
        for offset in range(self.num_nodes):
            cluster_state.add_node(
                Node(
                    node_id=next_id + offset,
                    num_gpus=self.gpus_per_node,
                    gpu_type_name=self.gpu_type,
                    cpu_cores=self.cpu_cores_per_node,
                    mem_gb=self.mem_gb_per_node,
                    network_bw_gbps=self.network_bw_gbps,
                )
            )
        return []


@dataclass(frozen=True)
class ScaleInEvent(ClusterEvent):
    """Remove nodes permanently (capacity scale-in).

    With explicit ``node_ids`` exactly those nodes (when still present) are
    removed; with ``num_nodes`` the highest-id nodes go first -- the most
    recently scaled-out capacity, matching how elastic pools shrink.  At
    least one node is always left so the cluster never empties.
    """

    node_ids: Tuple[int, ...] = ()
    num_nodes: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if bool(self.node_ids) == bool(self.num_nodes):
            raise ConfigurationError(
                "ScaleInEvent needs exactly one of node_ids or num_nodes"
            )
        if self.num_nodes < 0:
            raise ConfigurationError(f"num_nodes must be >= 0, got {self.num_nodes}")

    def describe(self) -> Dict[str, object]:
        return {"node_ids": list(self.node_ids), "num_nodes": self.num_nodes}

    def apply(self, cluster_state: ClusterState) -> List[int]:
        if self.node_ids:
            targets = [n for n in self.node_ids if n in cluster_state.nodes]
        else:
            targets = sorted(cluster_state.nodes, reverse=True)[: self.num_nodes]
        evicted: List[int] = []
        for node_id in targets:
            if len(cluster_state.nodes) <= 1:
                break
            for job_id in cluster_state.remove_node(node_id):
                if job_id not in evicted:
                    evicted.append(job_id)
        return evicted


@dataclass(frozen=True)
class GpuUpgradeEvent(ClusterEvent):
    """Replace a node's GPUs with a newer generation (rolling upgrade).

    Implemented as remove + re-add under the same node id: jobs on the node
    are evicted (the upgrade takes the machine down), its GPUs get fresh
    global ids of the new type, and every other hardware fact is preserved.
    """

    node_ids: Tuple[int, ...] = ()
    gpu_type: str = "a100"

    def describe(self) -> Dict[str, object]:
        return {"node_ids": list(self.node_ids), "gpu_type": self.gpu_type}

    def apply(self, cluster_state: ClusterState) -> List[int]:
        evicted: List[int] = []
        for node_id in self.node_ids:
            if node_id not in cluster_state.nodes:
                continue
            old = cluster_state.nodes[node_id]
            for job_id in cluster_state.remove_node(node_id):
                if job_id not in evicted:
                    evicted.append(job_id)
            cluster_state.add_node(
                Node(
                    node_id=node_id,
                    num_gpus=old.num_gpus,
                    gpu_type_name=self.gpu_type,
                    cpu_cores=old.cpu_cores,
                    mem_gb=old.mem_gb,
                    network_bw_gbps=old.network_bw_gbps,
                )
            )
        return evicted
