"""``ClusterState``: the shared view of machines and accelerators.

Blox stores the cluster state in a tabular structure with one row per GPU
(node id, global GPU id, local GPU id, GPU type, state, jobs running) plus a
per-node dictionary of hardware facts.  This class provides the same view with
query helpers used by placement policies, along with assignment bookkeeping
that raises :class:`~repro.core.exceptions.AllocationError` on double
allocation so inconsistent placement decisions are caught immediately.

The state is *indexed*: per-node free-GPU sets, healthy nodes grouped by
free-GPU count, one :class:`Allocation` record per job holding GPUs and cached
free/busy counters are updated invariantly by every mutation (``assign``/
``release_job``/``add_node``/``remove_node``/``mark_node_failed``/
``mark_node_recovered``), so the hot queries (``free_gpus``, ``gpus_for_job``,
``gpus_on_node``, ``num_free_gpus``, ``utilization``, ``free_count_buckets``,
``allocation``) cost O(result) instead of O(total GPUs).  ``check_invariants``
recomputes everything from scratch and is used by the test suite to prove the
indexes never drift from the ground truth.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    AbstractSet,
    DefaultDict,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.cluster.gpu_types import GPUType
from repro.cluster.node import GPU, Node
from repro.core.exceptions import AllocationError, UnknownNodeError


def gpu_type_key(gpu_type: Union[str, GPUType]) -> str:
    """Normalised lookup key for a GPU type given either a name or a GPUType."""
    return gpu_type.key if isinstance(gpu_type, GPUType) else str(gpu_type).lower()


@dataclass(slots=True, eq=False)
class Allocation:
    """One job's held GPUs, grouped by node once, when they are assigned.

    ``runs``: hosting node -> its GPUs, ascending, nodes in GPU-id order;
    ``nodes``: sorted; ``compute_factor``: the slowest GPU's; ``bandwidth``:
    the lowest cross-node bandwidth of ``nodes``; ``cpu_share``: the granted
    share of a Synergy launch's CPU demand (``None`` = unthrottled).  Every
    layer reads it instead of regrouping the GPUs; every assignment makes a
    new one, so its identity keys what is derived from it.
    """

    gpu_ids: Set[int]
    runs: Dict[int, List[int]]
    nodes: Tuple[int, ...]
    compute_factor: float
    bandwidth: float
    cpu_share: Optional[float] = None


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
        #: Free-GPU count (>= 1) -> ids of the healthy nodes with that many free
        #: GPUs (an emptied bucket stays, empty): placement's best fit reads it.
        self._nodes_by_free: DefaultDict[int, Set[int]] = defaultdict(set)
        #: job id -> the GPU ids it holds, and the record of that allocation.
        self._job_gpu_ids: Dict[int, Set[int]] = {}
        self._allocations: Dict[int, Allocation] = {}
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
        #: Bumps on any node add/remove/health change (the deployment path
        #: reconciles its workers only when it moved).
        self.membership_version = 0
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
            free = self._free_by_node[gpu.node_id]
            free.add(gpu.gpu_id)
            if not node.failed:
                self._refile(gpu.node_id, len(free) - 1, len(free))
                self._free_healthy_count += 1
                key = gpu.gpu_type.key
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
        on_node = dict.fromkeys(self.gpus[g].job_id for g in self._node_gpu_ids[node_id])
        evicted_jobs = [job_id for job_id in on_node if job_id is not None]
        # Free each evicted job's full allocation (including GPUs on other
        # nodes) and its aux reservations everywhere.
        for job_id in evicted_jobs:
            self.release_job(job_id)
        # Remove the node's (now all free) GPUs from the indexes.
        if not node.failed:
            self._refile(node_id, len(self._free_by_node[node_id]), 0)
        for gpu_id in self._node_gpu_ids[node_id]:
            del self.gpus[gpu_id]
            if not node.failed:
                self._free_healthy_count -= 1
                self._free_healthy_by_type[node.gpu_type.key] -= 1
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
        on_node = (self.gpus[g].job_id for g in self._node_gpu_ids[node_id])
        affected = sorted({job_id for job_id in on_node if job_id is not None})
        if not node.failed:
            self._flip_health(node)
        return affected

    def mark_node_recovered(self, node_id: int) -> None:
        """Bring a failed node back into the schedulable pool."""
        node = self.node(node_id)
        if node.failed:
            self._flip_health(node)

    def _flip_health(self, node: Node) -> None:
        """Fail a healthy node or recover a failed one (a negated product is exact)."""
        node.failed = not node.failed
        sign = -1 if node.failed else 1
        free_here = len(self._free_by_node[node.node_id])
        total_here = len(self._node_gpu_ids[node.node_id])
        self._refile(node.node_id, *((free_here, 0) if node.failed else (0, free_here)))
        self._free_healthy_count += sign * free_here
        key = node.gpu_type.key
        self._free_healthy_by_type[key] = self._free_healthy_by_type.get(key, 0) + sign * free_here
        factor = sign * node.gpu_type.compute_factor
        self._healthy_capacity += factor * total_here
        self._healthy_gpu_count += sign * total_here
        self._busy_capacity += factor * (total_here - free_here)
        self.membership_version += 1

    def _refile(self, node_id: int, old: int, new: int) -> None:
        """Move a healthy node from free-count bucket ``old`` to ``new`` (0 = none)."""
        if old:
            self._nodes_by_free[old].remove(node_id)
        if new:
            self._nodes_by_free[new].add(node_id)

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

    def free_count_buckets(self) -> Dict[int, Set[int]]:
        """Healthy nodes grouped by free-GPU count: count (>= 1) -> node ids.

        The live index itself, O(1): callers read it and never mutate it
        (the placement view copies a bucket before changing it).  A bucket
        that emptied stays as an empty set.
        """
        return self._nodes_by_free

    def gpus_on_node(self, node_id: int) -> List[GPU]:
        self.node(node_id)  # raises UnknownNodeError
        return [self.gpus[g] for g in self._node_gpu_ids[node_id]]

    def free_gpus_on_node(self, node_id: int) -> List[GPU]:
        if node_id not in self.nodes:
            raise UnknownNodeError(node_id)
        free_ids = self._free_by_node[node_id]
        return [self.gpus[g] for g in self._node_gpu_ids[node_id] if g in free_ids]

    def gpus_for_job(self, job_id: int) -> List[GPU]:
        record = self._allocations.get(job_id)
        return [] if record is None else [self.gpus[g] for g in sorted(record.gpu_ids)]

    def allocation(self, job_id: int) -> Optional[Allocation]:
        """The record of the job's allocation; ``None`` if it holds no GPUs."""
        return self._allocations.get(job_id)

    def allocations(self) -> Mapping[int, AbstractSet[int]]:
        """Job id -> the GPU ids it holds: the live index, read-only.

        For walks that test many jobs (placement's kept check) without a
        call per job; it changes with every assign and release.
        """
        return self._job_gpu_ids

    def num_gpus_for_job(self, job_id: int) -> int:
        """O(1) count of GPUs a job currently holds."""
        held = self._job_gpu_ids.get(job_id)
        return len(held) if held is not None else 0

    def nodes_for_job(self, job_id: int) -> List[int]:
        """Distinct node ids hosting a job, sorted; empty if the job is not placed."""
        record = self._allocations.get(job_id)
        return [] if record is None else list(record.nodes)

    def jobs_with_allocations(self) -> List[int]:
        """Ids of jobs currently holding at least one GPU, sorted."""
        return sorted(self._job_gpu_ids)

    def cpu_share(self, job_id: int) -> Optional[float]:
        """Granted fraction of the job's CPU demand; ``None`` if not throttled."""
        record = self._allocations.get(job_id)
        return None if record is None else record.cpu_share

    def gpu(self, gpu_id: int) -> GPU:
        if gpu_id not in self.gpus:
            raise AllocationError(f"unknown GPU id {gpu_id}")
        return self.gpus[gpu_id]

    # ------------------------------------------------------------------
    # Assignment bookkeeping
    # ------------------------------------------------------------------

    def assign(
        self,
        job_id: int,
        gpu_ids: Sequence[int],
        aux_per_gpu: Optional[Tuple[float, float]] = None,
    ) -> float:
        """Assign free, distinct GPUs to a job holding none; returns the CPU granted.

        Validated before any index is touched, so nothing sticks on an error.
        Grouped by node once, into the job's :class:`Allocation`: each node's
        free set, bucket and type counter move once, and with ``aux_per_gpu``
        (CPU cores, host memory per GPU) it reserves as much as it has left.
        """
        if not gpu_ids:
            return 0.0  # no-op, and no phantom entry in the job->GPU index
        if job_id in self._allocations:
            raise AllocationError(f"job {job_id} already holds GPUs; release them first")
        record = self._derive(gpu_ids)
        rows, nodes = self.gpus, self.nodes
        buckets, free_by_node = self._nodes_by_free, self._free_by_node
        for node_id, run in record.runs.items():
            free = free_by_node[node_id]
            if len(free.intersection(run)) != len(run):  # a GPU is busy, or named twice
                gpu_id = next(g for i, g in enumerate(run) if g not in free or g in run[:i])
                owner = job_id if gpu_id in free else self.gpus[gpu_id].job_id
                raise AllocationError(
                    f"GPU {gpu_id} is already assigned to job {owner}, "
                    f"cannot assign to job {job_id}"
                )
        granted = 0.0
        for node_id, run in record.runs.items():
            count = len(run)
            for gpu_id in run:
                rows[gpu_id].job_id = job_id
            free = free_by_node[node_id]
            free.difference_update(run)
            self._busy_count += count
            node = nodes[node_id]
            if not node.failed:
                left = len(free)
                buckets[left + count].remove(node_id)
                if left:
                    buckets[left].add(node_id)
                self._free_healthy_count -= count
                gpu_type = rows[run[0]].gpu_type
                self._free_healthy_by_type[gpu_type.key] -= count
                busy_capacity, factor = self._busy_capacity, gpu_type.compute_factor
                for _ in run:  # one add per GPU: the order the capacity sums keep
                    busy_capacity += factor
                self._busy_capacity = busy_capacity
            if aux_per_gpu is not None:
                cpus = min(float(aux_per_gpu[0]) * count, max(0.0, node.cpu_free))
                mem_gb = min(float(aux_per_gpu[1]) * count, max(0.0, node.mem_free))
                node.allocate_aux(job_id, cpus, mem_gb)
                granted += cpus
        self._job_gpu_ids[job_id] = record.gpu_ids
        self._allocations[job_id] = record
        return granted

    def _derive(self, gpu_ids: Iterable[int], cpu_share: Optional[float] = None) -> Allocation:
        """The record of an allocation of ``gpu_ids``, grouped from the GPU rows."""
        rows, runs, ordered = self.gpus, {}, sorted(gpu_ids)
        for gpu_id in ordered:
            if gpu_id not in rows:
                raise AllocationError(f"unknown GPU id {gpu_id}")
            runs.setdefault(rows[gpu_id].node_id, []).append(gpu_id)
        nodes = tuple(sorted(runs))
        factor = min([rows[run[0]].gpu_type.compute_factor for run in runs.values()])
        bandwidth = min([self.nodes[node_id].network_bw_gbps for node_id in nodes])
        return Allocation(set(ordered), runs, nodes, factor, bandwidth, cpu_share)

    def set_cpu_share(self, job_id: int, share: float) -> None:
        """Record the CPU share a job was launched with on its allocation."""
        record = self._allocations.get(job_id)
        if record is None:
            raise AllocationError(f"job {job_id} holds no GPUs, cannot record a CPU share")
        record.cpu_share = share

    def release_job(self, job_id: int) -> List[int]:
        """Free every GPU (and auxiliary resources) held by a job; returns freed GPU ids.

        Walks the job's :class:`Allocation`: each node moves once.
        """
        record = self._allocations.pop(job_id, None)
        if record is None:
            return []
        del self._job_gpu_ids[job_id]
        rows, nodes, buckets = self.gpus, self.nodes, self._nodes_by_free
        for node_id, run in record.runs.items():
            count = len(run)
            for gpu_id in run:
                rows[gpu_id].job_id = None
            free = self._free_by_node[node_id]
            free.update(run)
            self._busy_count -= count
            node = nodes[node_id]
            node.release_aux(job_id)
            if not node.failed:
                now = len(free)
                if now > count:
                    buckets[now - count].remove(node_id)
                buckets[now].add(node_id)
                self._free_healthy_count += count
                gpu_type = rows[run[0]].gpu_type
                key = gpu_type.key
                self._free_healthy_by_type[key] = self._free_healthy_by_type.get(key, 0) + count
                busy_capacity, factor = self._busy_capacity, gpu_type.compute_factor
                for _ in run:
                    busy_capacity -= factor
                self._busy_capacity = busy_capacity
        return [gpu_id for run in record.runs.values() for gpu_id in run]

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
        for job_id in clone._job_gpu_ids:
            record = clone._derive(clone._job_gpu_ids[job_id], self.cpu_share(job_id))
            clone._job_gpu_ids[job_id], clone._allocations[job_id] = record.gpu_ids, record
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
        free_per_node: Dict[int, int] = {}
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
                    free_per_node[gpu.node_id] = free_per_node.get(gpu.node_id, 0) + 1
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
        buckets: Dict[int, Set[int]] = {}
        for node_id, free_here in free_per_node.items():
            buckets.setdefault(free_here, set()).add(node_id)
        filed = {count: nodes for count, nodes in self._nodes_by_free.items() if nodes}
        assert buckets == filed, f"free-count buckets {filed} != recomputed {buckets}"
        assert all(count >= 1 for count in self._nodes_by_free), "bucket for 0 free GPUs"
        for node_id in self.nodes:
            listed = self._node_gpu_ids[node_id]
            actual = sorted(
                (g.gpu_id for g in self.gpus.values() if g.node_id == node_id),
                key=lambda g: self.gpus[g].local_gpu_id,
            )
            assert listed == actual, f"per-node GPU list drifted for node {node_id}"
        assert self._allocations.keys() == job_gpus.keys(), "allocation records drifted"
        for job_id, gpu_ids in job_gpus.items():
            record = self._allocations[job_id]
            runs: Dict[int, List[int]] = {}
            for gpu_id in sorted(gpu_ids):
                runs.setdefault(self.gpus[gpu_id].node_id, []).append(gpu_id)
            factor = min(self.gpus[g].gpu_type.compute_factor for g in gpu_ids)
            bandwidth = min(self.nodes[n].network_bw_gbps for n in runs)
            expected = (list(runs.items()), tuple(sorted(runs)), factor, bandwidth)
            got = (list(record.runs.items()), record.nodes, record.compute_factor, record.bandwidth)
            assert got == expected, f"record of job {job_id} {got} != recomputed {expected}"
            assert record.gpu_ids is self._job_gpu_ids[job_id], f"job {job_id}: two GPU sets"
            share = record.cpu_share
            assert share is None or 0.0 <= share <= 1.0, f"CPU share {share} of job {job_id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ClusterState(nodes={self.num_nodes}, gpus={self.total_gpus}, "
            f"free={self.num_free_gpus()})"
        )
