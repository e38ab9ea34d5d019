"""Replayable run descriptions: record once, re-drive bit-identically.

A :class:`RunSpec` is a plain-data description of a run -- mode, policy and
placement names (resolved through registries, never pickled objects), seed,
workload size, cluster shape, federation layout.  It is stored in every
recorded trace's header, which makes the trace *self-replaying*:
``python -m repro.trace replay trace.jsonl`` rebuilds the exact run from the
header and diffs the fresh event stream against the recorded one.  Because
every run here is a deterministic function of (spec, seed) -- policies draw
no unseeded randomness, the workload generator is seeded, routing is
deterministic -- the two streams must be byte-identical; a non-empty diff
means the code's scheduling behaviour changed since the recording, which is
exactly what an operator debugging a drifted run wants surfaced.

Three modes cover the repo's execution paths:

* ``core`` -- the plain :class:`~repro.simulator.engine.Simulator`;
* ``runtime`` -- the deployment path
  (:class:`~repro.runtime.central_scheduler.CentralScheduler`, optimistic
  leases, deterministic overheads), adding lease + rpc-faults events;
* ``federation`` -- the serial federation engine, adding per-shard round
  streams plus routing events.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

from repro.telemetry.events import TraceFormatError, TraceHeader, run_metadata
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.sinks import TraceSink

MODES = ("core", "runtime", "federation")
#: Values of the retired ``engine`` spec field that old trace headers carry.
_LEGACY_ENGINES = ("rounds", "events")


def _policy_factories() -> Dict[str, type]:
    from repro.policies.scheduling import (
        FifoScheduling,
        LasScheduling,
        SrtfScheduling,
        TiresiasScheduling,
    )

    return {
        "fifo": FifoScheduling,
        "srtf": SrtfScheduling,
        "las": LasScheduling,
        "tiresias": TiresiasScheduling,
    }


def _placement_factories() -> Dict[str, type]:
    from repro.policies.placement.consolidated import ConsolidatedPlacement
    from repro.policies.placement.first_free import FirstFreePlacement

    return {
        "consolidated": ConsolidatedPlacement,
        "first-free": FirstFreePlacement,
    }


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to re-drive a recorded run, as plain data."""

    mode: str = "core"
    policy: str = "fifo"
    placement: str = "consolidated"
    seed: int = 20240301
    num_jobs: int = 60
    jobs_per_hour: float = 4.0
    num_nodes: int = 8
    gpus_per_node: int = 4
    round_duration: float = 300.0
    #: Federation only: shard count (``num_nodes`` must divide evenly) and
    #: router name from the router registry.
    shards: int = 2
    router: str = "round-robin"
    #: Core mode only: run under a named scenario from the scenario registry.
    #: The scenario then supplies cluster, workload, round duration and the
    #: churn timeline (whose firings record as ``cluster`` events);
    #: ``num_jobs``/``num_nodes``/... above are ignored.  ``scenario_smoke``
    #: selects the registry's shrunk smoke variant.
    scenario: Optional[str] = None
    scenario_smoke: bool = False

    def __post_init__(self) -> None:
        from repro.federation.router import ROUTER_FACTORIES

        if self.mode not in MODES:
            raise TraceFormatError(f"unknown run mode {self.mode!r}; expected {MODES}")
        if self.policy not in _policy_factories():
            raise TraceFormatError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{sorted(_policy_factories())}"
            )
        if self.placement not in _placement_factories():
            raise TraceFormatError(
                f"unknown placement {self.placement!r}; expected one of "
                f"{sorted(_placement_factories())}"
            )
        if self.num_jobs < 1 or self.num_nodes < 1:
            raise TraceFormatError("num_jobs and num_nodes must be >= 1")
        if self.scenario is not None:
            from repro.scenarios.registry import scenario_names

            if self.mode != "core":
                raise TraceFormatError(
                    "scenario runs are core-mode only (the runtime/federation "
                    "paths wire their own scenario managers)"
                )
            if self.scenario not in scenario_names():
                raise TraceFormatError(
                    f"unknown scenario {self.scenario!r}; expected one of "
                    f"{scenario_names()}"
                )
        if self.mode == "federation":
            if self.shards < 1 or self.num_nodes % self.shards != 0:
                raise TraceFormatError(
                    f"shards ({self.shards}) must divide num_nodes ({self.num_nodes})"
                )
            if self.router not in ROUTER_FACTORIES:
                raise TraceFormatError(
                    f"unknown router {self.router!r}; expected one of "
                    f"{sorted(ROUTER_FACTORIES)}"
                )

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "RunSpec":
        if record.get("engine") in _LEGACY_ENGINES:
            # Headers recorded while two skip engines existed name one; the
            # two were bit-identical by contract, so the key is discarded.
            record = {k: v for k, v in record.items() if k != "engine"}
        known = {f.name for f in fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise TraceFormatError(
                f"run spec has unknown fields {sorted(unknown)}; "
                "was it recorded by a newer version?"
            )
        return cls(**record)

    # ------------------------------------------------------------------

    def _trace(self):
        from repro.workloads.philly import generate_philly_trace

        return generate_philly_trace(
            num_jobs=self.num_jobs, jobs_per_hour=self.jobs_per_hour, seed=self.seed
        )

    def _cluster(self, num_nodes: Optional[int] = None):
        from repro.cluster.builder import build_cluster

        return build_cluster(
            num_nodes=num_nodes if num_nodes is not None else self.num_nodes,
            gpus_per_node=self.gpus_per_node,
            gpu_type="v100",
            network_bw_gbps=10.0,
        )

    def header(self, started_at: Optional[float] = None) -> TraceHeader:
        """The self-describing trace header for a recording of this spec."""
        return TraceHeader(
            metadata=run_metadata(self.seed, self.as_dict(), started_at),
            spec=self.as_dict(),
        )


def run_recorded(
    spec: RunSpec,
    sink: TraceSink,
    started_at: Optional[float] = None,
    write_header: bool = True,
) -> None:
    """Execute ``spec`` start to finish, streaming its events into ``sink``.

    The caller owns the sink (and closes it); ``started_at`` is the caller's
    wall clock for the header stamp and never enters any event payload.
    """
    if write_header:
        sink.write_header(spec.header(started_at))
    if spec.mode == "core":
        _run_core(spec, sink)
    elif spec.mode == "runtime":
        _run_runtime(spec, sink)
    else:
        _run_federation(spec, sink)
    flush = getattr(sink, "flush", None)
    if flush is not None:
        flush()


def _run_core(spec: RunSpec, sink: TraceSink) -> None:
    from repro.simulator.engine import Simulator

    if spec.scenario is not None:
        from repro.scenarios.registry import get_scenario

        compiled = get_scenario(spec.scenario, smoke=spec.scenario_smoke).compile(
            seed=spec.seed
        )
        Simulator(
            cluster_state=compiled.build_cluster(),
            jobs=compiled.trace.fresh_jobs(),
            scheduling_policy=_policy_factories()[spec.policy](),
            placement_policy=_placement_factories()[spec.placement](),
            round_duration=compiled.spec.round_duration,
            cluster_manager=compiled.make_cluster_manager(),
            tracked_job_ids=compiled.trace.tracked_ids(),
            recorder=TraceRecorder(sink, source="sim"),
        ).run()
        return

    Simulator(
        cluster_state=spec._cluster(),
        jobs=spec._trace().fresh_jobs(),
        scheduling_policy=_policy_factories()[spec.policy](),
        placement_policy=_placement_factories()[spec.placement](),
        round_duration=spec.round_duration,
        recorder=TraceRecorder(sink, source="sim"),
    ).run()


def _run_runtime(spec: RunSpec, sink: TraceSink) -> None:
    from repro.runtime.central_scheduler import CentralScheduler
    from repro.simulator.overheads import OverheadModel

    CentralScheduler(
        cluster_state=spec._cluster(),
        jobs=spec._trace().fresh_jobs(),
        scheduling_policy=_policy_factories()[spec.policy](),
        placement_policy=_placement_factories()[spec.placement](),
        round_duration=spec.round_duration,
        lease_protocol="optimistic",
        overhead_model=OverheadModel(),
        recorder=TraceRecorder(sink, source="runtime"),
    ).run()


def _run_federation(spec: RunSpec, sink: TraceSink) -> None:
    from repro.federation.engine import FederationEngine
    from repro.federation.router import make_router
    from repro.federation.shard import ShardSimulator

    nodes_per_shard = spec.num_nodes // spec.shards
    shards: List[ShardSimulator] = []
    for shard_id in range(spec.shards):
        shards.append(
            ShardSimulator(
                shard_id=shard_id,
                cluster_state=spec._cluster(num_nodes=nodes_per_shard),
                scheduling_policy=_policy_factories()[spec.policy](),
                placement_policy=_placement_factories()[spec.placement](),
                round_duration=spec.round_duration,
                recorder=TraceRecorder(sink, source=f"shard{shard_id}"),
            )
        )
    FederationEngine(
        shards=shards,
        router=make_router(spec.router),
        jobs=spec._trace().fresh_jobs(),
        recorder=TraceRecorder(sink, source="federation"),
    ).run()
