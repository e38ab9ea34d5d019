"""Shared gang-placement machinery used by every placement policy.

The placement abstraction receives the priority list produced by the scheduling
policy and must answer two questions every round: which jobs run (given finite
GPUs) and exactly which GPUs they run on.  The answer also implies which
currently running jobs must be suspended.  :class:`BasePlacementPolicy`
implements this round logic once; concrete policies only override
:meth:`BasePlacementPolicy.select_gpus`, the part that differs between
first-free, consolidated, skew-based, profile-based and bandwidth-aware
placement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.node import GPU
from repro.core.abstractions import PlacementDecision, PlacementPolicy, ScheduleEntry
from repro.core.cluster_state import ClusterState
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState


class AvailabilityView:
    """Tracks which GPUs are available during one placement computation.

    The view starts from the GPUs that are currently free on healthy nodes plus
    the GPUs of jobs the policy has decided to suspend this round, and is
    consumed as the policy hands out allocations.

    Construction reads the cluster's per-node free-GPU index directly
    (:meth:`ClusterState.free_gpus_by_node`), so building the view costs
    O(free GPUs) instead of a full rescan of every GPU row, and :meth:`take`
    only touches the nodes it removes from.
    """

    def __init__(self, cluster_state: ClusterState, extra_gpu_ids: Sequence[int] = ()) -> None:
        self.cluster_state = cluster_state
        self._free_by_node: Dict[int, List[GPU]] = cluster_state.free_gpus_by_node()
        self._total = sum(len(g) for g in self._free_by_node.values())
        dirty = set()
        for gpu_id in dict.fromkeys(extra_gpu_ids):
            gpu = cluster_state.gpu(gpu_id)
            if cluster_state.node(gpu.node_id).failed:
                continue
            if gpu.is_free:
                continue  # already present via the free index
            self._free_by_node.setdefault(gpu.node_id, []).append(gpu)
            self._total += 1
            dirty.add(gpu.node_id)
        for node_id in sorted(dirty):
            self._free_by_node[node_id].sort(key=lambda g: g.local_gpu_id)

    def total_free(self) -> int:
        return self._total

    def node_ids(self) -> List[int]:
        return sorted(self._free_by_node)

    def free_on_node(self, node_id: int) -> List[GPU]:
        return list(self._free_by_node.get(node_id, []))

    def free_count(self, node_id: int) -> int:
        return len(self._free_by_node.get(node_id, []))

    def nodes_by_free_count(self, descending: bool = True) -> List[int]:
        """Node ids ordered by how many free GPUs they have (ties by node id)."""
        return sorted(
            self._free_by_node,
            key=lambda n: (-self.free_count(n) if descending else self.free_count(n), n),
        )

    def take(self, gpu_ids: Sequence[int]) -> None:
        """Remove GPUs from the view after they have been handed to a job.

        Only the nodes hosting the taken GPUs are touched, so the cost is
        O(taken + free on those nodes) rather than a rebuild of the whole
        view; a GPU on a node with nothing free costs one dict probe.
        """
        free_by_node = self._free_by_node
        if not free_by_node:
            return
        gpu_rows = self.cluster_state.gpus
        by_node: Dict[int, set] = {}
        for gpu_id in gpu_ids:
            node_id = gpu_rows[gpu_id].node_id
            if node_id in free_by_node:
                by_node.setdefault(node_id, set()).add(gpu_id)
        for node_id, taken in by_node.items():
            gpus = free_by_node[node_id]
            remaining = [g for g in gpus if g.gpu_id not in taken]
            self._total -= len(gpus) - len(remaining)
            if remaining:
                free_by_node[node_id] = remaining
            else:
                del free_by_node[node_id]


class BasePlacementPolicy(PlacementPolicy):
    """Round logic shared by all placement policies.

    The placement proceeds in three steps:

    1. *Selection*: walk the priority list and select jobs while GPUs remain
       (the scheduling policy controls ordering and may itself truncate the
       list, e.g. strict FIFO).
    2. *Suspension*: running jobs that were not selected, or whose GPU demand
       changed, are suspended; their GPUs become available.
    3. *Allocation*: selected jobs that are not already running with the right
       allocation receive concrete GPUs via :meth:`select_gpus`.

    The decision is the round's *delta*: a running job whose demand is
    unchanged keeps its GPUs by being named in neither ``to_suspend`` nor
    ``to_launch`` (see :class:`~repro.core.abstractions.PlacementDecision`),
    so a saturated steady round costs the selection walk over the jobs that
    fit and nothing per kept job beyond one dictionary probe.
    """

    name = "base-placement"

    #: The shared round logic keeps a running job's allocation untouched
    #: whenever its demand is unchanged and capacity suffices, so the simulator
    #: may skip placement calls during steady-state rounds (see
    #: :class:`repro.simulator.engine.Simulator`).
    steady_state_safe = True

    def place(
        self,
        schedule: Sequence[ScheduleEntry],
        cluster_state: ClusterState,
        job_state: JobState,
    ) -> PlacementDecision:
        selected: Dict[int, int] = {}
        remaining = cluster_state.healthy_gpus()
        for entry in schedule:
            if remaining == 0:
                # Every later entry demands at least one GPU (or is skipped),
                # so the rest of the list cannot change the decision.
                break
            demand = entry.gpu_demand
            if demand <= 0 or entry.job_id in selected:
                continue
            if demand <= remaining:
                selected[entry.job_id] = demand
                remaining -= demand

        decision = PlacementDecision()
        suspended_gpus: List[int] = []
        for job in job_state.running_jobs():
            if selected.get(job.job_id) == len(job.allocated_gpus):
                # Kept exactly as it runs: not part of this round's delta.
                del selected[job.job_id]
            else:
                decision.to_suspend.append(job.job_id)
                suspended_gpus.extend(job.allocated_gpus)
        if not selected:
            return decision

        view = AvailabilityView(cluster_state, extra_gpu_ids=suspended_gpus)
        # What is left of the selection, still in priority order, is the
        # round's launches, moves and resizes.
        for job_id, demand in selected.items():
            if view.total_free() < demand:
                continue
            gpu_ids = self.select_gpus(job_state.get(job_id), demand, view, cluster_state)
            if gpu_ids is None or len(gpu_ids) != demand:
                continue
            view.take(gpu_ids)
            decision.to_launch[job_id] = sorted(gpu_ids)

        return decision

    # ------------------------------------------------------------------
    # Hook for subclasses
    # ------------------------------------------------------------------

    def select_gpus(
        self,
        job: Job,
        demand: int,
        view: AvailabilityView,
        cluster_state: ClusterState,
    ) -> Optional[List[int]]:
        """Pick ``demand`` GPU ids from the availability view for ``job``.

        Return ``None`` (or a short list) if no acceptable placement exists; the
        job then waits for the next round.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Reusable allocation strategies for subclasses
    # ------------------------------------------------------------------

    @staticmethod
    def _take_first_free(demand: int, view: AvailabilityView) -> Optional[List[int]]:
        """Take the lowest-numbered free GPUs regardless of node boundaries."""
        picked: List[int] = []
        for node_id in view.node_ids():
            for gpu in view.free_on_node(node_id):
                picked.append(gpu.gpu_id)
                if len(picked) == demand:
                    return picked
        return picked if len(picked) == demand else None

    @staticmethod
    def _take_consolidated(demand: int, view: AvailabilityView) -> Optional[List[int]]:
        """Pack the job on as few nodes as possible (best fit on a single node)."""
        # Best fit: the node with the fewest free GPUs that still fits the job.
        single_node_candidates = [
            node_id for node_id in view.node_ids() if view.free_count(node_id) >= demand
        ]
        if single_node_candidates:
            best = min(single_node_candidates, key=lambda n: (view.free_count(n), n))
            return [g.gpu_id for g in view.free_on_node(best)[:demand]]
        # Otherwise spread over the fewest nodes, preferring the emptiest ones.
        picked: List[int] = []
        for node_id in view.nodes_by_free_count(descending=True):
            for gpu in view.free_on_node(node_id):
                picked.append(gpu.gpu_id)
                if len(picked) == demand:
                    return picked
        return picked if len(picked) == demand else None

    @staticmethod
    def _take_fragment_friendly(demand: int, view: AvailabilityView) -> Optional[List[int]]:
        """Fill up the fullest nodes first, minimising future fragmentation.

        Used for jobs that do not care about consolidation: they can absorb the
        scattered single GPUs, leaving contiguous blocks for jobs that do care.
        """
        picked: List[int] = []
        for node_id in view.nodes_by_free_count(descending=False):
            for gpu in view.free_on_node(node_id):
                picked.append(gpu.gpu_id)
                if len(picked) == demand:
                    return picked
        return picked if len(picked) == demand else None
