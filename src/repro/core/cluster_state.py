"""``ClusterState``: the shared view of machines and accelerators.

Blox stores the cluster state in a tabular structure with one row per GPU
(node id, global GPU id, local GPU id, GPU type, state, jobs running) plus a
per-node dictionary of hardware facts.  This class provides the same view with
query helpers used by placement policies, along with assignment bookkeeping
that raises :class:`~repro.core.exceptions.AllocationError` on double
allocation so inconsistent placement decisions are caught immediately.

The state is *indexed*: per-node free-GPU sets, a job->GPU index and cached
free/busy counters are updated invariantly by every mutation
(``assign``/``release_job``/``add_node``/``remove_node``/``mark_node_failed``/
``mark_node_recovered``), so the hot queries (``free_gpus``, ``gpus_for_job``,
``gpus_on_node``, ``num_free_gpus``, ``utilization``) cost O(result) instead of
O(total GPUs).  ``check_invariants`` recomputes everything from scratch and is
used by the test suite to prove the indexes never drift from the ground truth.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.cluster.gpu_types import GPUType
from repro.cluster.node import GPU, Node
from repro.core.exceptions import AllocationError, UnknownNodeError


def gpu_type_key(gpu_type: Union[str, GPUType]) -> str:
    """Normalised lookup key for a GPU type given either a name or a GPUType."""
    name = gpu_type.name if isinstance(gpu_type, GPUType) else str(gpu_type)
    return name.lower()


class ClusterState:
    """Tracks every node and GPU in the cluster and which job occupies it."""

    def __init__(self, nodes: Optional[Iterable[Node]] = None) -> None:
        self.nodes: Dict[int, Node] = {}
        self.gpus: Dict[int, GPU] = {}
        self._next_gpu_id = 0
        #: GPU ids per node, ordered by local GPU id (fixed once a node joins).
        self._node_gpu_ids: Dict[int, List[int]] = {}
        #: Free GPU ids per node (membership set; ordering comes from the list above).
        self._free_by_node: Dict[int, Set[int]] = {}
        #: job id -> set of GPU ids it currently holds.
        self._job_gpu_ids: Dict[int, Set[int]] = {}
        #: job id -> node ids where auxiliary CPU/memory is reserved for it.
        self._aux_nodes_by_job: Dict[int, Set[int]] = {}
        #: Cached counters kept in sync by every mutation.
        self._busy_count = 0
        self._free_healthy_count = 0
        self._free_healthy_by_type: Dict[str, int] = {}
        #: Compute-factor-weighted capacity counters (V100 = 1.0 per GPU).
        #: ``_healthy_capacity`` sums every GPU on a healthy node;
        #: ``_busy_capacity`` sums the assigned GPUs on healthy nodes.  Both
        #: are maintained by the same mutations as the unit counters, so the
        #: capacity-weighted utilisation of a heterogeneous cluster is O(1).
        self._busy_capacity = 0.0
        self._healthy_capacity = 0.0
        #: GPUs (free or assigned) on healthy nodes: the integer twin of
        #: ``_healthy_capacity``, maintained at the same mutation sites.
        self._healthy_gpu_count = 0
        #: Version stamps consumed by the execution model's rate cache: the
        #: membership version bumps on any node add/remove/health change, a
        #: job's allocation version bumps whenever its GPU set changes.  A
        #: job's effective rate is a pure function of state covered by these
        #: two stamps (its GPUs, their types, its nodes' bandwidths), so a
        #: cache entry is valid exactly while both are unchanged.
        self.membership_version = 0
        self._alloc_version: Dict[int, int] = {}
        if nodes is not None:
            for node in nodes:
                self.add_node(node)

    # ------------------------------------------------------------------
    # Cluster management (add/remove nodes, failures)
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> List[int]:
        """Register a node and create GPU rows for it; returns new global GPU ids."""
        self._adopt_node(node)
        new_ids = []
        for local_id in range(node.num_gpus):
            gpu = GPU(
                gpu_id=self._next_gpu_id,
                node_id=node.node_id,
                local_gpu_id=local_id,
                gpu_type=node.gpu_type,
            )
            self._register_gpu(gpu)
            new_ids.append(gpu.gpu_id)
            self._next_gpu_id += 1
        return new_ids

    def _adopt_node(self, node: Node) -> None:
        """Register a node record without creating GPUs (snapshot/add_node helper)."""
        if node.node_id in self.nodes:
            raise AllocationError(f"node {node.node_id} is already part of the cluster")
        self.nodes[node.node_id] = node
        self._node_gpu_ids[node.node_id] = []
        self._free_by_node[node.node_id] = set()
        self.membership_version += 1

    def _register_gpu(self, gpu: GPU) -> None:
        """Index one GPU row (free or already assigned) under its node."""
        if gpu.node_id not in self.nodes:
            raise UnknownNodeError(gpu.node_id)
        node = self.nodes[gpu.node_id]
        self.gpus[gpu.gpu_id] = gpu
        ids = self._node_gpu_ids[gpu.node_id]
        ids.append(gpu.gpu_id)
        ids.sort(key=lambda g: self.gpus[g].local_gpu_id)
        if not node.failed:
            self._healthy_capacity += gpu.gpu_type.compute_factor
            self._healthy_gpu_count += 1
        if gpu.is_free:
            self._free_by_node[gpu.node_id].add(gpu.gpu_id)
            if not node.failed:
                self._free_healthy_count += 1
                key = gpu_type_key(gpu.gpu_type)
                self._free_healthy_by_type[key] = self._free_healthy_by_type.get(key, 0) + 1
        else:
            self._job_gpu_ids.setdefault(gpu.job_id, set()).add(gpu.gpu_id)
            self._busy_count += 1
            if not node.failed:
                self._busy_capacity += gpu.gpu_type.compute_factor

    def remove_node(self, node_id: int) -> List[int]:
        """Remove a node (e.g. on permanent failure); returns ids of evicted jobs.

        Jobs that had GPUs on the node lose their *entire* allocation (a gang
        job cannot keep running with a missing shard): their GPUs on surviving
        nodes are freed and every auxiliary CPU/memory reservation they hold --
        on this node or any other -- is released, so an eviction never leaks
        per-node aux bookkeeping.  Callers are responsible for resetting the
        evicted jobs' own ``allocated_gpus``/status (the scheduling loop does
        this by preempting them).
        """
        if node_id not in self.nodes:
            raise UnknownNodeError(node_id)
        node = self.nodes[node_id]
        evicted_jobs: List[int] = []
        for gpu_id in self._node_gpu_ids[node_id]:
            job_id = self.gpus[gpu_id].job_id
            if job_id is not None and job_id not in evicted_jobs:
                evicted_jobs.append(job_id)
        # Free each evicted job's full allocation (including GPUs on other
        # nodes) and its aux reservations everywhere.
        for job_id in evicted_jobs:
            self.release_job(job_id)
        # Drop any remaining aux bookkeeping that pointed at this node.
        for job_id in node.aux_job_ids():
            node.release_aux(job_id)
            nodes_for_job = self._aux_nodes_by_job.get(job_id)
            if nodes_for_job is not None:
                nodes_for_job.discard(node_id)
                if not nodes_for_job:
                    del self._aux_nodes_by_job[job_id]
        # Remove the node's (now all free) GPUs from the indexes.
        for gpu_id in self._node_gpu_ids[node_id]:
            del self.gpus[gpu_id]
            if not node.failed:
                self._free_healthy_count -= 1
                key = gpu_type_key(node.gpu_type)
                self._free_healthy_by_type[key] -= 1
                self._healthy_capacity -= node.gpu_type.compute_factor
                self._healthy_gpu_count -= 1
        del self._node_gpu_ids[node_id]
        del self._free_by_node[node_id]
        del self.nodes[node_id]
        self.membership_version += 1
        return evicted_jobs

    def mark_node_failed(self, node_id: int) -> List[int]:
        """Mark a node failed without removing it; returns jobs running on it."""
        node = self.node(node_id)
        affected = sorted(
            {
                self.gpus[g].job_id
                for g in self._node_gpu_ids[node_id]
                if self.gpus[g].job_id is not None
            }
        )
        if not node.failed:
            node.failed = True
            free_here = len(self._free_by_node[node_id])
            self._free_healthy_count -= free_here
            key = gpu_type_key(node.gpu_type)
            self._free_healthy_by_type[key] = (
                self._free_healthy_by_type.get(key, 0) - free_here
            )
            factor = node.gpu_type.compute_factor
            total_here = len(self._node_gpu_ids[node_id])
            self._healthy_capacity -= factor * total_here
            self._healthy_gpu_count -= total_here
            self._busy_capacity -= factor * (total_here - free_here)
            self.membership_version += 1
        return affected

    def mark_node_recovered(self, node_id: int) -> None:
        """Bring a failed node back into the schedulable pool."""
        node = self.node(node_id)
        if not node.failed:
            return
        node.failed = False
        free_here = len(self._free_by_node[node_id])
        self._free_healthy_count += free_here
        key = gpu_type_key(node.gpu_type)
        self._free_healthy_by_type[key] = self._free_healthy_by_type.get(key, 0) + free_here
        factor = node.gpu_type.compute_factor
        total_here = len(self._node_gpu_ids[node_id])
        self._healthy_capacity += factor * total_here
        self._healthy_gpu_count += total_here
        self._busy_capacity += factor * (total_here - free_here)
        self.membership_version += 1

    def node(self, node_id: int) -> Node:
        if node_id not in self.nodes:
            raise UnknownNodeError(node_id)
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # Queries used by scheduling and placement policies
    # ------------------------------------------------------------------

    @property
    def total_gpus(self) -> int:
        return len(self.gpus)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def active_nodes(self) -> List[Node]:
        """Nodes that have not been marked failed."""
        return [n for n in self.nodes.values() if not n.failed]

    def free_gpus(self, gpu_type: Optional[Union[str, GPUType]] = None) -> List[GPU]:
        """All unassigned GPUs on healthy nodes, optionally filtered by type."""
        wanted = gpu_type_key(gpu_type) if gpu_type is not None else None
        out: List[int] = []
        for node_id, node in self.nodes.items():
            if node.failed:
                continue
            if wanted is not None and gpu_type_key(node.gpu_type) != wanted:
                continue
            out.extend(self._free_by_node[node_id])
        return [self.gpus[g] for g in sorted(out)]

    def num_free_gpus(self, gpu_type: Optional[Union[str, GPUType]] = None) -> int:
        """Count of free GPUs on healthy nodes; O(1) via the cached counters."""
        if gpu_type is None:
            return self._free_healthy_count
        return self._free_healthy_by_type.get(gpu_type_key(gpu_type), 0)

    def free_gpus_by_node(self) -> Dict[int, List[GPU]]:
        """Free GPUs on healthy nodes grouped per node, ordered by local GPU id.

        This is the bulk query placement policies build their availability view
        from; it costs O(free GPUs), not O(total GPUs).
        """
        out: Dict[int, List[GPU]] = {}
        for node_id, node in self.nodes.items():
            if node.failed:
                continue
            free_ids = self._free_by_node[node_id]
            if not free_ids:
                continue
            out[node_id] = [
                self.gpus[g] for g in self._node_gpu_ids[node_id] if g in free_ids
            ]
        return out

    def gpus_on_node(self, node_id: int) -> List[GPU]:
        if node_id not in self.nodes:
            raise UnknownNodeError(node_id)
        return [self.gpus[g] for g in self._node_gpu_ids[node_id]]

    def free_gpus_on_node(self, node_id: int) -> List[GPU]:
        if node_id not in self.nodes:
            raise UnknownNodeError(node_id)
        free_ids = self._free_by_node[node_id]
        return [self.gpus[g] for g in self._node_gpu_ids[node_id] if g in free_ids]

    def gpus_for_job(self, job_id: int) -> List[GPU]:
        return [self.gpus[g] for g in sorted(self._job_gpu_ids.get(job_id, ()))]

    def num_gpus_for_job(self, job_id: int) -> int:
        """O(1) count of GPUs a job currently holds."""
        held = self._job_gpu_ids.get(job_id)
        return len(held) if held is not None else 0

    def nodes_for_job(self, job_id: int) -> List[int]:
        """Distinct node ids hosting a job, sorted; empty if the job is not placed."""
        return sorted({self.gpus[g].node_id for g in self._job_gpu_ids.get(job_id, ())})

    def job_is_consolidated(self, job_id: int) -> bool:
        """True when all of a job's GPUs are on a single node."""
        return len(self.nodes_for_job(job_id)) <= 1

    def jobs_with_allocations(self) -> List[int]:
        """Ids of jobs currently holding at least one GPU, sorted."""
        return sorted(self._job_gpu_ids)

    def alloc_version(self, job_id: int) -> int:
        """Monotonic stamp of a job's allocation (bumps on assign/release)."""
        return self._alloc_version.get(job_id, 0)

    def gpu(self, gpu_id: int) -> GPU:
        if gpu_id not in self.gpus:
            raise AllocationError(f"unknown GPU id {gpu_id}")
        return self.gpus[gpu_id]

    # ------------------------------------------------------------------
    # Assignment bookkeeping
    # ------------------------------------------------------------------

    def assign(self, job_id: int, gpu_ids: Sequence[int]) -> None:
        """Assign the given GPUs to a job.

        All GPUs must currently be free (and distinct); the whole assignment is
        validated before any index is touched so the cluster state never ends
        up half-updated.
        """
        if not gpu_ids:
            return  # no-op, and no phantom entry in the job->GPU index
        seen: Set[int] = set()
        for gpu_id in gpu_ids:
            gpu = self.gpu(gpu_id)
            if not gpu.is_free or gpu_id in seen:
                owner = job_id if gpu_id in seen else gpu.job_id
                raise AllocationError(
                    f"GPU {gpu_id} is already assigned to job {owner}, "
                    f"cannot assign to job {job_id}"
                )
            seen.add(gpu_id)
        held = self._job_gpu_ids.setdefault(job_id, set())
        self._alloc_version[job_id] = self._alloc_version.get(job_id, 0) + 1
        for gpu_id in gpu_ids:
            gpu = self.gpus[gpu_id]
            gpu.job_id = job_id
            held.add(gpu_id)
            self._free_by_node[gpu.node_id].discard(gpu_id)
            self._busy_count += 1
            node = self.nodes[gpu.node_id]
            if not node.failed:
                self._free_healthy_count -= 1
                self._free_healthy_by_type[gpu_type_key(gpu.gpu_type)] -= 1
                self._busy_capacity += gpu.gpu_type.compute_factor

    def reserve_aux(self, job_id: int, node_id: int, cpus: float, mem_gb: float) -> None:
        """Reserve CPU/memory for a job on a node, tracking it for release.

        Launch mechanisms must go through this (rather than calling
        ``Node.allocate_aux`` directly) so :meth:`release_job` can release aux
        reservations in O(nodes hosting the job) instead of scanning the
        cluster.
        """
        self.node(node_id).allocate_aux(job_id, cpus, mem_gb)
        self._aux_nodes_by_job.setdefault(job_id, set()).add(node_id)

    def release_job(self, job_id: int) -> List[int]:
        """Free every GPU (and auxiliary resources) held by a job; returns freed GPU ids."""
        freed = sorted(self._job_gpu_ids.pop(job_id, set()))
        aux_nodes = self._aux_nodes_by_job.pop(job_id, set())
        if freed:
            self._alloc_version[job_id] = self._alloc_version.get(job_id, 0) + 1
        for gpu_id in freed:
            gpu = self.gpus[gpu_id]
            gpu.job_id = None
            self._free_by_node[gpu.node_id].add(gpu_id)
            self._busy_count -= 1
            node = self.nodes[gpu.node_id]
            if not node.failed:
                self._free_healthy_count += 1
                key = gpu_type_key(gpu.gpu_type)
                self._free_healthy_by_type[key] = self._free_healthy_by_type.get(key, 0) + 1
                self._busy_capacity -= gpu.gpu_type.compute_factor
            # Defensive: cover aux reserved outside reserve_aux on hosting nodes.
            aux_nodes.add(gpu.node_id)
        for node_id in sorted(aux_nodes):
            if node_id in self.nodes:
                self.nodes[node_id].release_aux(job_id)
        return freed

    def utilization(self) -> float:
        """Fraction of GPUs currently assigned to some job."""
        if not self.gpus:
            return 0.0
        return self._busy_count / len(self.gpus)

    def healthy_capacity(self) -> float:
        """Compute-factor-weighted capacity of all GPUs on healthy nodes; O(1)."""
        return self._healthy_capacity

    def healthy_gpus(self) -> int:
        """GPUs, free or assigned, on healthy nodes; O(1).

        What a round can hand out in total.  Not ``busy + free healthy``:
        between a node failing and its jobs being evicted, the GPUs those
        jobs hold there are busy but no longer schedulable.
        """
        return self._healthy_gpu_count

    def busy_capacity(self) -> float:
        """Compute-factor-weighted capacity of assigned GPUs on healthy nodes; O(1)."""
        return self._busy_capacity

    def capacity_utilization(self) -> float:
        """Fraction of the healthy, compute-weighted capacity currently in use.

        Unlike :meth:`utilization` this discounts failed nodes (capacity the
        scheduler cannot use should not count against it) and weighs each GPU
        by its generation's compute factor, so an A100 sitting idle costs more
        than an idle K80 -- the number scenario reports aggregate over time.
        """
        if self._healthy_capacity <= 0:
            return 0.0
        return self._busy_capacity / self._healthy_capacity

    # ------------------------------------------------------------------
    # Tabular view (the Blox GPU dataframe)
    # ------------------------------------------------------------------

    def gpu_table(self) -> List[Dict[str, object]]:
        """Return the per-GPU table as a list of dicts (one row per GPU)."""
        rows = []
        for gpu in sorted(self.gpus.values(), key=lambda g: g.gpu_id):
            rows.append(
                {
                    "node_id": gpu.node_id,
                    "gpu_id": gpu.gpu_id,
                    "local_gpu_id": gpu.local_gpu_id,
                    "gpu_type": gpu.gpu_type.name,
                    "state": gpu.state,
                    "job_id": gpu.job_id,
                }
            )
        return rows

    def snapshot(self) -> "ClusterState":
        """Deep copy used by shadow simulations (synthesizer).

        Built entirely from public APIs: nodes are cloned via
        :meth:`~repro.cluster.node.Node.clone` (which replays aux reservations
        through ``allocate_aux``) and GPUs re-registered through the same
        indexing path the live state uses.
        """
        return self.copy_as(type(self))

    def copy_as(self, cluster_cls: type) -> "ClusterState":
        """Deep copy into a (possibly different) ``ClusterState`` subclass.

        Used by :meth:`snapshot` and by the benchmark to rebuild a cluster as
        the seed-cost :class:`~repro.bench.legacy.LegacyClusterState`.
        """
        clone = cluster_cls()
        for node in self.nodes.values():
            clone._adopt_node(node.clone())
        for gpu in sorted(self.gpus.values(), key=lambda g: g.gpu_id):
            clone._register_gpu(
                GPU(
                    gpu_id=gpu.gpu_id,
                    node_id=gpu.node_id,
                    local_gpu_id=gpu.local_gpu_id,
                    gpu_type=gpu.gpu_type,
                    job_id=gpu.job_id,
                )
            )
        clone._next_gpu_id = self._next_gpu_id
        clone._aux_nodes_by_job = {
            job_id: set(node_ids) for job_id, node_ids in self._aux_nodes_by_job.items()
        }
        return clone

    # ------------------------------------------------------------------
    # Invariant checking (test support)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Recompute every index from the raw GPU rows and assert they agree.

        Raises ``AssertionError`` on any drift; used by the test suite after
        every mutation sequence.
        """
        busy = 0
        free_healthy = 0
        free_by_type: Dict[str, int] = {}
        job_gpus: Dict[int, Set[int]] = {}
        healthy_capacity = 0.0
        healthy_gpus = 0
        busy_capacity = 0.0
        for gpu in self.gpus.values():
            assert gpu.node_id in self.nodes, f"GPU {gpu.gpu_id} on unknown node"
            node = self.nodes[gpu.node_id]
            in_free = gpu.gpu_id in self._free_by_node[gpu.node_id]
            assert in_free == gpu.is_free, f"free index wrong for GPU {gpu.gpu_id}"
            if not node.failed:
                healthy_capacity += gpu.gpu_type.compute_factor
                healthy_gpus += 1
            if gpu.is_free:
                if not node.failed:
                    free_healthy += 1
                    key = gpu_type_key(gpu.gpu_type)
                    free_by_type[key] = free_by_type.get(key, 0) + 1
            else:
                busy += 1
                job_gpus.setdefault(gpu.job_id, set()).add(gpu.gpu_id)
                if not node.failed:
                    busy_capacity += gpu.gpu_type.compute_factor
        assert busy == self._busy_count, f"busy {busy} != cached {self._busy_count}"
        assert free_healthy == self._free_healthy_count, (
            f"free {free_healthy} != cached {self._free_healthy_count}"
        )
        assert healthy_gpus == self._healthy_gpu_count, (
            f"healthy GPUs {healthy_gpus} != cached {self._healthy_gpu_count}"
        )
        # The cached capacities accumulate the same values in a different
        # order (and bulk multiples on fail/recover), so compare with a
        # tolerance instead of bit-exactly.
        assert math.isclose(
            healthy_capacity, self._healthy_capacity, rel_tol=1e-9, abs_tol=1e-9
        ), f"healthy capacity {healthy_capacity} != cached {self._healthy_capacity}"
        assert math.isclose(
            busy_capacity, self._busy_capacity, rel_tol=1e-9, abs_tol=1e-9
        ), f"busy capacity {busy_capacity} != cached {self._busy_capacity}"
        cached_by_type = {k: v for k, v in self._free_healthy_by_type.items() if v}
        assert free_by_type == cached_by_type, (
            f"per-type free {free_by_type} != cached {cached_by_type}"
        )
        assert job_gpus == {k: v for k, v in self._job_gpu_ids.items() if v}, (
            "job->GPU index drifted"
        )
        for node_id in self.nodes:
            listed = self._node_gpu_ids[node_id]
            actual = sorted(
                (g.gpu_id for g in self.gpus.values() if g.node_id == node_id),
                key=lambda g: self.gpus[g].local_gpu_id,
            )
            assert listed == actual, f"per-node GPU list drifted for node {node_id}"
        for job_id, node_ids in self._aux_nodes_by_job.items():
            for node_id in sorted(node_ids):
                assert node_id in self.nodes, (
                    f"aux index references removed node {node_id} for job {job_id}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ClusterState(nodes={self.num_nodes}, gpus={self.total_gpus}, "
            f"free={self.num_free_gpus()})"
        )
