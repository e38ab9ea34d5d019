"""Shared gang-placement machinery used by every placement policy.

Every round placement answers which jobs run (given finite GPUs), which
running jobs are suspended, and exactly which GPUs the rest run on.
:class:`BasePlacementPolicy` implements this round once, with
:func:`walk_schedule` as the reference selection; concrete policies only
override :meth:`BasePlacementPolicy.select_gpus`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import AbstractSet, Dict, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Set, Tuple

from repro.cluster.node import GPU
from repro.core.abstractions import PlacementDecision, PlacementPolicy, ScheduleEntry
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import AllocationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState


class AvailabilityView:
    """Tracks which GPUs are available during one placement computation.

    The view holds the GPUs free on healthy nodes plus those of the jobs
    suspended this round, and is consumed as allocations are handed out.
    It is an overlay on the cluster's free-count index
    (:meth:`ClusterState.free_count_buckets`): it keeps its own free list
    only for the nodes this round reads or touches -- nodes it asks about,
    nodes that get GPUs back from a suspended job and nodes it takes from --
    and its own copy of a bucket only once it moves a node into or out of
    it.  Every other answer is read from the cluster, which the view never
    mutates.  A round costs
    O(touched nodes + buckets), and the queries walk buckets in count order
    instead of sorting every node.
    """

    def __init__(self, cluster_state: ClusterState, extra_gpu_ids: Sequence[int] = ()) -> None:
        self.cluster_state = cluster_state
        #: Free count -> node ids: the cluster's own sets, except for the
        #: counts in ``_owned``, which :meth:`_refile` copied before a change.
        self._buckets: Dict[int, Set[int]] = dict(cluster_state.free_count_buckets())
        self._owned: Set[int] = set()
        #: Free GPUs (local-id order) of the nodes this view has read or touched.
        self._lists: Dict[int, List[GPU]] = {}
        self._sorted: Optional[List[int]] = None  # see node_ids
        self._total = cluster_state.num_free_gpus()
        returned: Dict[int, Set[int]] = {}
        for gpu_id in extra_gpu_ids:
            gpu = cluster_state.gpu(gpu_id)
            if gpu.is_free or cluster_state.node(gpu.node_id).failed:
                continue  # already in the view, or never schedulable
            returned.setdefault(gpu.node_id, set()).add(gpu_id)
        for node_id, gpu_ids in returned.items():
            gpus = [
                g
                for g in cluster_state.gpus_on_node(node_id)
                if g.job_id is None or g.gpu_id in gpu_ids
            ]
            self._total += len(gpu_ids)
            self._refile(node_id, len(gpus) - len(gpu_ids), len(gpus))
            self._lists[node_id] = gpus

    def _refile(self, node_id: int, old: int, new: int) -> None:
        """Move a node between this view's buckets, copying each one first."""
        for count in (old, new):
            if count and count not in self._owned:
                self._owned.add(count)
                self._buckets[count] = set(self._buckets.get(count, ()))
        if old:
            self._buckets[old].discard(node_id)
        if new:
            self._buckets[new].add(node_id)

    def _free_list(self, node_id: int) -> List[GPU]:
        """The node's free GPUs in local-id order, read from the cluster once.

        Read-only: :meth:`take` replaces a node's list, never edits it.
        """
        gpus = self._lists.get(node_id)
        if gpus is None:
            node = self.cluster_state.nodes.get(node_id)
            failed = node is None or node.failed
            gpus = self._lists[node_id] = (
                [] if failed else self.cluster_state.free_gpus_on_node(node_id)
            )
        return gpus

    def total_free(self) -> int:
        return self._total

    def node_ids(self) -> List[int]:
        """Every node with a free GPU, ascending: the live list, sorted once
        per view and shrunk by :meth:`take`.  Do not :meth:`take` while iterating."""
        if self._sorted is None:
            self._sorted = sorted(n for bucket in self._buckets.values() for n in bucket)
        return self._sorted

    def free_on_node(self, node_id: int) -> List[GPU]:
        return list(self._free_list(node_id))

    def free_count(self, node_id: int) -> int:
        return len(self._free_list(node_id))

    def best_fit(self, demand: int) -> Optional[int]:
        """The node with the fewest free GPUs that still fits ``demand``.

        Ties go to the lowest node id; ``None`` when no single node fits.
        """
        fitting = [c for c, nodes in self._buckets.items() if c >= demand and nodes]
        if not fitting:
            return None
        return min(self._buckets[min(fitting)])

    def nodes_by_free_count(self, descending: bool = True) -> Iterator[int]:
        """Node ids by free count, ties by node id, one bucket sorted at a time.

        Lazy: a walk that stops early sorts only the buckets it reached.
        Do not :meth:`take` while iterating.
        """
        for count in sorted(self._buckets, reverse=descending):
            yield from sorted(self._buckets[count])

    def take(self, job_id: int, gpu_ids: Sequence[int]) -> None:
        """Remove GPUs from the view after they have been handed to ``job_id``.

        Raises :class:`AllocationError` naming the GPU and the job when a GPU
        is not in the view (busy, on a failed node, unknown, or handed out
        twice), before anything is removed.  Only the nodes hosting the taken
        GPUs are touched.
        """
        gpu_rows = self.cluster_state.gpus
        by_node: Dict[int, List[int]] = {}
        for gpu_id in gpu_ids:
            gpu = gpu_rows.get(gpu_id)
            if gpu is None:
                raise AllocationError(f"job {job_id} was given unknown GPU {gpu_id}")
            by_node.setdefault(gpu.node_id, []).append(gpu_id)
        plan = []
        for node_id, taken in by_node.items():
            gpus = self._free_list(node_id)
            remaining = [g for g in gpus if g.gpu_id not in taken]
            if len(gpus) - len(remaining) != len(taken):
                offered = {g.gpu_id for g in gpus}
                for gpu_id in taken:
                    if gpu_id not in offered:
                        raise AllocationError(
                            f"job {job_id} was given GPU {gpu_id}, which is not available "
                            "in this round's placement view (busy, failed, or given twice)"
                        )
                    offered.discard(gpu_id)
            plan.append((node_id, len(gpus), remaining))
        for node_id, before, remaining in plan:
            self._lists[node_id] = remaining
            self._total -= before - len(remaining)
            self._refile(node_id, before, len(remaining))
            if not remaining and self._sorted is not None:
                del self._sorted[bisect_left(self._sorted, node_id)]


class BasePlacementPolicy(PlacementPolicy):
    """Round logic shared by all placement policies.

    1. *Selection*: which jobs run -- the schedule's own ``select`` if it has
       one, else :func:`walk_schedule` over it (a wrapped stream walks).
       Nothing is mutated before it ends.
    2. *Suspension*: running jobs not kept by the selection are suspended;
       their GPUs become available.
    3. *Allocation*: selected jobs receive concrete GPUs via
       :meth:`select_gpus`, in selection order.

    The decision is the round's *delta*: a running job whose demand is
    unchanged keeps its GPUs by being named in neither ``to_suspend`` nor
    ``to_launch`` (see :class:`~repro.core.abstractions.PlacementDecision`).
    """

    name = "base-placement"

    #: The shared round logic keeps a running job's allocation untouched
    #: whenever its demand is unchanged and capacity suffices, so the simulator
    #: may skip placement calls during steady-state rounds (see
    #: :class:`repro.simulator.engine.Simulator`).
    steady_state_safe = True

    def place(
        self,
        schedule: Iterable[ScheduleEntry],
        cluster_state: ClusterState,
        job_state: JobState,
    ) -> PlacementDecision:
        remaining = cluster_state.healthy_gpus()
        held = cluster_state.allocations()
        select = getattr(schedule, "select", None)
        if select is not None:
            selected, suspended = select(remaining, held)
        else:
            running = job_state.ids_with_status(JobStatus.RUNNING)
            selected, suspended = walk_schedule(schedule, remaining, held, running)

        decision = PlacementDecision(to_suspend=sorted(suspended))
        suspended_gpus: List[int] = []
        for job_id in decision.to_suspend:
            suspended_gpus.extend(job_state.get(job_id).allocated_gpus)
        if not selected:
            return decision

        view = AvailabilityView(cluster_state, extra_gpu_ids=suspended_gpus)
        # What is left of the selection, still in priority order, is the
        # round's launches, moves and resizes.
        for job_id, demand in selected.items():
            if view.total_free() < demand:
                continue
            job = job_state.get(job_id)
            gpu_ids = self.select_gpus(job, demand, view, cluster_state)
            if gpu_ids is None or len(gpu_ids) != demand:
                continue
            view.take(job_id, gpu_ids)
            decision.to_launch[job_id] = sorted(gpu_ids)
            request = self.aux_request(job, gpu_ids, cluster_state)
            if request is not None:
                decision.aux_per_gpu[job_id] = request

        return decision

    # -- Hooks for subclasses --

    def select_gpus(
        self, job: Job, demand: int, view: AvailabilityView, cluster_state: ClusterState
    ) -> Optional[List[int]]:
        """Pick ``demand`` GPU ids from the availability view for ``job``.

        Return ``None`` (or a short list) if no acceptable placement exists; the
        job then waits for the next round.
        """
        raise NotImplementedError

    def aux_request(
        self, job: Job, gpu_ids: List[int], cluster_state: ClusterState
    ) -> Optional[Tuple[float, float]]:
        """Per-GPU ``(CPU cores, host memory GB)`` to reserve when launching
        ``job`` on ``gpu_ids`` (as :meth:`select_gpus` returned them); ``None``
        (the default) reserves its full demand, unthrottled
        (see :class:`~repro.core.abstractions.PlacementDecision`)."""
        return None

    # -- Reusable allocation strategies for subclasses --

    @staticmethod
    def _take_first_free(demand: int, view: AvailabilityView) -> Optional[List[int]]:
        """Take the free GPUs of the lowest-numbered nodes, ignoring node boundaries."""
        return _fill(demand, view.node_ids(), view)

    @staticmethod
    def _take_consolidated(demand: int, view: AvailabilityView) -> Optional[List[int]]:
        """Pack the job on as few nodes as possible (best fit on a single node)."""
        best = view.best_fit(demand)
        if best is not None:
            return [g.gpu_id for g in view.free_on_node(best)[:demand]]
        # Otherwise spread over the fewest nodes, preferring the emptiest ones.
        return _fill(demand, view.nodes_by_free_count(descending=True), view)

    @staticmethod
    def _take_fragment_friendly(demand: int, view: AvailabilityView) -> Optional[List[int]]:
        """Fill up the fullest nodes first, minimising future fragmentation.

        Used for jobs that do not care about consolidation: they can absorb the
        scattered single GPUs, leaving contiguous blocks for jobs that do care.
        """
        return _fill(demand, view.nodes_by_free_count(descending=False), view)


def walk_schedule(
    schedule: Iterable[ScheduleEntry], remaining: int,
    held: Mapping[int, AbstractSet[int]], running: AbstractSet[int],
) -> Tuple[Dict[int, int], Set[int]]:
    """Placement's selection read off a schedule in order: the reference.

    Pulls entries while GPUs remain (never the rest) and takes each that fits
    what those before it left.  A taken job holding exactly its demand
    (``held``: job id -> GPU ids) is kept.  Returns the others (job id ->
    demand, stream order) and the ``running`` ids not kept: what a
    schedule's own ``select`` must return."""
    kept: Set[int] = set()
    selected: Dict[int, int] = {}
    held_gpus = held.get
    for entry in schedule:
        if remaining == 0:
            break
        demand = entry.gpu_demand
        job_id = entry.job_id
        if demand <= 0 or job_id in selected or job_id in kept:
            continue
        if demand <= remaining:
            remaining -= demand
            gpus = held_gpus(job_id)
            if gpus is not None and len(gpus) == demand:
                kept.add(job_id)
            else:
                selected[job_id] = demand
    return selected, running - kept


def _fill(demand: int, node_ids: Iterable[int], view: AvailabilityView) -> Optional[List[int]]:
    """Take free GPUs node by node, in the given node order, until ``demand``."""
    picked: List[int] = []
    for node_id in node_ids:
        for gpu in view.free_on_node(node_id):
            picked.append(gpu.gpu_id)
            if len(picked) == demand:
                return picked
    return None
