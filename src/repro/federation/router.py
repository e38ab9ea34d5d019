"""Pluggable routing policies for the multi-cluster federation layer.

A :class:`FederationRouter` is the admission-side counterpart of a scheduling
policy one level up: where a scheduling policy orders jobs *within* a cluster,
a router decides which shard (independent cluster + policy stack) an incoming
gang enters at all.  Routers see a compact :class:`ShardViewSummary` per shard
-- a picklable digest of the shard's cluster and job state as of the last
completed round, including the gangs already routed to it but not yet admitted
-- and return a shard index.

The summary (rather than the live ``ClusterState``/``JobState`` objects) is
the federation's *message type*: in parallel mode each shard lives in a worker
process and only the summary crosses the pipe, and in serial mode the engine
builds the identical summary from the live shard -- so routing reads exactly
the same facts in both modes, which is what makes serial and parallel runs
bit-identical.

Determinism contract: routing is a pure function of the job and the shard
summaries (round-robin additionally keeps an internal cursor, which is still
deterministic), with explicit shard-id tie-breaks.  No router draws
randomness, so a federation run is replayable and the fast-forward parity
checks extend across the routing layer.

The four stock routers cover the design space the Block paper (predictive
load balancing across scheduler instances) motivates:

* :class:`RoundRobinRouter` -- the static baseline;
* :class:`LeastLoadedRouter` -- greedy on current capacity utilisation;
* :class:`GpuTypeAffinityRouter` -- locality first (shards owning the job's
  requested GPU generation), then least-loaded;
* :class:`QueueDelayRouter` -- predictive: routes to the shard whose
  estimated queue backlog plus the job's own service demand clears first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.core.cluster_state import ClusterState, gpu_type_key
from repro.core.job import Job
from repro.core.job_state import JobState

__all__ = [
    "ShardViewSummary",
    "summarize_shard",
    "FederationRouter",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "GpuTypeAffinityRouter",
    "QueueDelayRouter",
    "ROUTER_FACTORIES",
    "router_names",
    "make_router",
]


@dataclass(frozen=True)
class ShardViewSummary:
    """Compact, picklable digest of one shard's state for routing decisions.

    This is everything any stock router consults, reduced to plain numbers so
    the summary can cross a process boundary (parallel federation workers
    reply to ``advance`` commands with one of these).  All GPU-type keys are
    normalised with :func:`~repro.core.cluster_state.gpu_type_key`.

    The queue-facing fields (``pending_gpu_demand``, ``outstanding_gpu_seconds``,
    ``queued_jobs``) include gangs already routed to the shard but still in
    its arrival queue -- without them, two gangs arriving in the same round
    would both see the shard as empty and pile onto it.  Between two routing
    decisions at the same pause point only those fields can change, and only
    on the shard that received the previous gang; :meth:`with_queued` applies
    exactly that delta, so the engine refreshes one summary per decision
    instead of re-materialising every shard's view.
    """

    shard_id: int
    current_time: float
    #: All GPUs the shard owns, failed nodes included (the engine's
    #: feasibility filter: a gang larger than this can never be placed).
    total_gpus: int
    #: Compute-weighted capacity of GPUs on healthy nodes (0.0 = dead shard).
    healthy_capacity: float
    #: Fraction of the healthy capacity currently in use.
    capacity_utilization: float
    #: Free GPUs on healthy nodes, per normalised GPU type.
    free_gpus_by_type: Dict[str, int] = field(default_factory=dict)
    #: GPU types present on at least one healthy node.
    owned_gpu_types: FrozenSet[str] = frozenset()
    #: GPUs wanted by admitted-but-idle jobs plus routed-but-unadmitted gangs.
    pending_gpu_demand: int = 0
    #: Remaining committed work in GPU-seconds (active jobs + queued gangs):
    #: the fluid-model backlog a new arrival queues behind.
    outstanding_gpu_seconds: float = 0.0
    #: Gangs routed to the shard but still in its arrival queue.
    queued_jobs: int = 0

    def free_gpus(self, gpu_type=None) -> int:
        """Free healthy GPUs, optionally restricted to one (normalised) type."""
        if gpu_type is None:
            return sum(self.free_gpus_by_type.values())
        return self.free_gpus_by_type.get(gpu_type_key(gpu_type), 0)

    def with_queued(self, job: Job) -> "ShardViewSummary":
        """The summary after routing ``job`` to this shard (pure update).

        Appends the gang's demand terms in routing order, exactly as a fresh
        :func:`summarize_shard` over the grown queue would -- the serial and
        parallel engines both use this for same-round refreshes, so the
        floating-point accumulation order (and hence every downstream routing
        decision) is identical in both modes.
        """
        return replace(
            self,
            pending_gpu_demand=self.pending_gpu_demand + job.num_gpus,
            outstanding_gpu_seconds=self.outstanding_gpu_seconds
            + job.remaining_work * job.num_gpus,
            queued_jobs=self.queued_jobs + 1,
        )


def summarize_shard(
    shard_id: int,
    cluster_state: ClusterState,
    job_state: JobState,
    current_time: float,
    queued_jobs: Sequence[Job] = (),
) -> ShardViewSummary:
    """Digest live shard state into a :class:`ShardViewSummary`.

    Deterministic accumulation order: active jobs in job-id order (the
    registry's sorted view), then queued gangs in queue order -- matching the
    order :meth:`ShardViewSummary.with_queued` extends the sums in.
    """
    free_by_type: Dict[str, int] = {}
    owned: List[str] = []
    for node in cluster_state.active_nodes():
        key = gpu_type_key(node.gpu_type)
        if key not in free_by_type:
            free_by_type[key] = cluster_state.num_free_gpus(key)
            owned.append(key)
    pending = 0
    outstanding = 0.0
    for job in job_state.active_jobs():
        if not job.is_running:
            pending += job.num_gpus
        outstanding += job.remaining_work * job.num_gpus
    for job in queued_jobs:
        pending += job.num_gpus
        outstanding += job.remaining_work * job.num_gpus
    return ShardViewSummary(
        shard_id=shard_id,
        current_time=current_time,
        total_gpus=cluster_state.total_gpus,
        healthy_capacity=cluster_state.healthy_capacity(),
        capacity_utilization=cluster_state.capacity_utilization(),
        free_gpus_by_type=free_by_type,
        owned_gpu_types=frozenset(owned),
        pending_gpu_demand=pending,
        outstanding_gpu_seconds=outstanding,
        queued_jobs=len(queued_jobs),
    )


class FederationRouter:
    """Decides which shard an incoming gang is admitted to.

    ``route`` receives the summaries of the shards the gang can *feasibly*
    run on (the engine pre-filters shards whose total GPU count is below the
    gang size -- routing there would starve the job forever) and must return
    the ``shard_id`` of one of them.
    """

    name = "router"

    def route(self, job: Job, shards: Sequence[ShardViewSummary]) -> int:
        """Return the ``shard_id`` of the summary chosen for ``job``."""
        raise NotImplementedError


class RoundRobinRouter(FederationRouter):
    """Cycle through the feasible shards, one gang each.

    The cursor advances once per routed gang regardless of how many shards
    were feasible for it, so small gangs keep rotating over the full
    federation while oversized gangs cycle over the subset that fits them.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def route(self, job: Job, shards: Sequence[ShardViewSummary]) -> int:
        del job
        view = shards[self._cursor % len(shards)]
        self._cursor += 1
        return view.shard_id


def _load_key(view: ShardViewSummary) -> Tuple[float, float, int]:
    """Least-loaded ordering: utilisation, then pending demand, then id.

    Primary key is the compute-weighted capacity utilisation (failed nodes
    don't count as schedulable headroom).  Early in a run every shard is at
    0% utilisation, so pending demand relative to capacity breaks ties before
    the deterministic shard-id fallback.  A shard with *zero* healthy
    capacity (every node failed or scaled in) ranks as maximally loaded --
    ``capacity_utilization`` reports such a shard as 0.0, and treating that
    as "idle" would funnel every arrival into a dead shard for the duration
    of its outage.
    """
    if view.healthy_capacity <= 0:
        return (math.inf, math.inf, view.shard_id)
    pending = view.pending_gpu_demand / view.healthy_capacity
    return (view.capacity_utilization, pending, view.shard_id)


class LeastLoadedRouter(FederationRouter):
    """Greedy: route to the shard with the lowest capacity utilisation."""

    name = "least-loaded"

    def route(self, job: Job, shards: Sequence[ShardViewSummary]) -> int:
        del job
        return min(shards, key=_load_key).shard_id


class GpuTypeAffinityRouter(FederationRouter):
    """Locality first: prefer shards that own the job's requested GPU type.

    Candidate order: shards with a *free* GPU of the requested type, then
    shards owning the type at all (on a healthy node), then every shard.
    Within each tier the least-loaded ordering decides.  Jobs whose type no
    shard owns degrade gracefully to pure least-loaded routing.
    """

    name = "gpu-affinity"

    def route(self, job: Job, shards: Sequence[ShardViewSummary]) -> int:
        wanted = gpu_type_key(job.gpu_type)
        with_free = [v for v in shards if v.free_gpus_by_type.get(wanted, 0) > 0]
        if with_free:
            return min(with_free, key=_load_key).shard_id
        with_type = [v for v in shards if wanted in v.owned_gpu_types]
        if with_type:
            return min(with_type, key=_load_key).shard_id
        return min(shards, key=_load_key).shard_id


class QueueDelayRouter(FederationRouter):
    """Predictive router in the spirit of Block's load balancer.

    Scores each shard with a fluid-model *predicted clearing time* for the
    incoming gang::

        score(shard) = (backlog_gpu_seconds + job.num_gpus * job.duration)
                       / healthy_capacity

    i.e. the time a work-conserving shard needs to drain everything already
    committed to it plus the new gang, given its compute-weighted capacity.
    Unlike instantaneous utilisation this looks *forward*: a shard running
    one near-finished job beats a shard at equal utilisation running jobs
    with hours of remaining work, and heterogeneous shards are normalised by
    their actual capacity.  Shards with zero healthy capacity score infinite
    and are only chosen when every shard is down (deterministic id
    tie-break).
    """

    name = "queue-delay"

    def route(self, job: Job, shards: Sequence[ShardViewSummary]) -> int:
        def score(view: ShardViewSummary) -> Tuple[float, int]:
            if view.healthy_capacity <= 0:
                return (math.inf, view.shard_id)
            demand = job.num_gpus * job.duration
            return (
                (view.outstanding_gpu_seconds + demand) / view.healthy_capacity,
                view.shard_id,
            )

        return min(shards, key=score).shard_id


#: Router registry: name -> zero-argument factory (routers are stateful, so
#: every federation run must get a fresh instance, like policies).
ROUTER_FACTORIES = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    GpuTypeAffinityRouter.name: GpuTypeAffinityRouter,
    QueueDelayRouter.name: QueueDelayRouter,
}


def router_names() -> List[str]:
    return sorted(ROUTER_FACTORIES)


def make_router(name: str) -> FederationRouter:
    """Instantiate a stock router by registry name."""
    if name not in ROUTER_FACTORIES:
        from repro.core.exceptions import ConfigurationError

        known = ", ".join(router_names())
        raise ConfigurationError(f"unknown router {name!r}; known: {known}")
    return ROUTER_FACTORIES[name]()
