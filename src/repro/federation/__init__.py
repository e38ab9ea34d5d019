"""Multi-cluster federation: sharded scheduling loops behind a router.

The horizontal-scaling layer of the reproduction (see ``docs/federation.md``):
N independent shards -- each a full cluster + policy stack, optionally with
its own scenario timeline -- coordinated by a pluggable
:class:`~repro.federation.router.FederationRouter` that assigns each incoming
gang to a shard.  One :class:`FederationEngine` runs the shards either
in-process (serial lockstep, :class:`LocalShardBackend`) or as worker
processes behind a message-passing protocol (:class:`WorkerPoolBackend`) with
bit-identical results.
Per-shard event-skipping fast-forward stays active between routing events,
and every per-shard schedule is parity-checked against per-round stepping and
serial-vs-parallel execution (``python -m repro.bench --federation``).

Worker failures are classified by a small taxonomy (defined here, at the
package root, so :mod:`repro.federation.parallel` can raise them without an
import cycle): :class:`RetryableWorkerError` for failures a supervisor may
recover from by respawn + checkpoint replay (crash, hang, lost pipe), and
:class:`FatalWorkerError` for deterministic failures where a retry would just
reproduce the problem (a worker-side exception, restart budget exhausted, the
whole federation dead).  Both subclass
:class:`~repro.core.exceptions.SimulationError`, so unsupervised callers keep
seeing the error type they always did.  See ``docs/robustness.md``.
"""

from repro.core.exceptions import SimulationError


class FederationWorkerError(SimulationError):
    """A federation shard worker misbehaved; message carries shard ids,
    worker pid and the last-known protocol phase."""


class RetryableWorkerError(FederationWorkerError):
    """The worker crashed, hung or lost its pipe -- state is gone but the
    failure is environmental: a supervisor can respawn the worker and replay
    its shards from the last checkpoint."""


class FatalWorkerError(FederationWorkerError):
    """Recovery is pointless or exhausted: a deterministic worker-side
    exception (replay would reproduce it), an exceeded restart budget, or no
    surviving shard to degrade onto."""


from repro.federation.engine import (
    FederationEngine,
    FederationResult,
    FederationStreamResult,
    LocalShardBackend,
    ScenarioManagerFactory,
    ShardBackend,
    ShardFinishStats,
    drive_federation,
)
from repro.federation.parallel import (
    SupervisorConfig,
    WorkerKillPlan,
    WorkerPoolBackend,
    default_worker_count,
)
from repro.federation.router import (
    ROUTER_FACTORIES,
    FederationRouter,
    GpuTypeAffinityRouter,
    LeastLoadedRouter,
    QueueDelayRouter,
    RoundRobinRouter,
    ShardViewSummary,
    make_router,
    router_names,
    summarize_shard,
)
from repro.federation.shard import ShardSimulator

__all__ = [
    "FatalWorkerError",
    "FederationEngine",
    "FederationResult",
    "FederationRouter",
    "FederationStreamResult",
    "FederationWorkerError",
    "GpuTypeAffinityRouter",
    "LeastLoadedRouter",
    "LocalShardBackend",
    "QueueDelayRouter",
    "ROUTER_FACTORIES",
    "RetryableWorkerError",
    "RoundRobinRouter",
    "ScenarioManagerFactory",
    "ShardBackend",
    "ShardFinishStats",
    "ShardSimulator",
    "ShardViewSummary",
    "SupervisorConfig",
    "WorkerKillPlan",
    "WorkerPoolBackend",
    "default_worker_count",
    "drive_federation",
    "make_router",
    "router_names",
    "summarize_shard",
]
