"""Deployment-path components: CentralScheduler, WorkerManager, client library.

Blox deploys as three processes communicating over gRPC: a ``CentralScheduler``
running the scheduling loop, a ``WorkerManager`` per node executing launches
and preemptions and storing per-job metrics, and a ``BloxClientLibrary`` linked
into each training job (a data-loader wrapper performing lease checks at
iteration boundaries plus a metric push API).  This package reproduces those
components in-process, with an explicit message-passing layer standing in for
gRPC, so the lease protocols (central vs optimistic renewal, two-phase
revocation for distributed jobs) and the "only two modules change between
simulation and deployment" property can be exercised and measured.

The channel doubles as the control-plane chaos layer: arming it with a
:class:`FaultPlan` injects seeded drop/delay/duplicate/lost-reply faults into
every call, and a :class:`RetryPolicy` plus per-operation idempotency tokens
make the lease protocol exactly-once under those faults (see
``docs/robustness.md``).
"""

from repro.runtime.rpc import (
    FaultPlan,
    FaultSpec,
    InMemoryRpcChannel,
    RetryPolicy,
)
from repro.runtime.worker_manager import WorkerManager
from repro.runtime.client_library import BloxDataLoader, WorkerMetricsCollector
from repro.runtime.lease import (
    CentralLeaseManager,
    OptimisticLeaseManager,
    build_lease_setup,
)
from repro.runtime.metrics import WorkerMetricsAggregator
from repro.runtime.central_scheduler import CentralScheduler, DeploymentBloxManager

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InMemoryRpcChannel",
    "RetryPolicy",
    "WorkerManager",
    "BloxDataLoader",
    "WorkerMetricsCollector",
    "WorkerMetricsAggregator",
    "CentralLeaseManager",
    "OptimisticLeaseManager",
    "build_lease_setup",
    "CentralScheduler",
    "DeploymentBloxManager",
]
