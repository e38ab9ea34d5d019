"""Replayable run descriptions: record once, re-drive bit-identically.

A :class:`RunSpec` is a plain-data description of a run -- mode, policy,
placement, admission and workload names (any key of ``SCHEDULING_POLICIES`` /
``PLACEMENT_POLICIES`` / ``ADMISSION_POLICIES`` / ``WORKLOAD_GENERATORS``,
never pickled objects), seed, workload size and generator parameters, cluster
shape, federation layout -- and :meth:`RunSpec.build` is the one place that
turns a description into an engine.  It is stored in every
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
  (:class:`~repro.runtime.central_scheduler.CentralScheduler`; optimistic
  leases and deterministic overheads unless ``build()`` is handed a
  ``lease_protocol`` / ``overhead_model``), adding lease + rpc-faults events;
* ``federation`` -- the federation engine over in-process shards, adding
  per-shard round streams plus routing events; ``build(workers=N)`` is the
  same federation with the shards in N worker processes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.telemetry.events import TraceFormatError, TraceHeader, run_metadata

if TYPE_CHECKING:  # a spec builds unrecorded runs too; those need neither
    from repro.telemetry.recorder import TraceRecorder
    from repro.telemetry.sinks import TraceSink

MODES = ("core", "runtime", "federation")

#: ``build()`` keywords that configure the federation worker pool
#: (:class:`~repro.federation.parallel.WorkerPoolBackend`), not the shards.
_POOL_KEYWORDS = (
    "mp_context",
    "handshake_timeout_s",
    "collect_timeout_s",
    "supervisor",
    "kill_plan",
)


def _freeze(value):
    """Lists (what JSON makes of tuples) back to tuples, recursively, so a spec
    read from a trace header equals, and hashes like, the one recorded."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


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
    #: Core and runtime modes: run under a named scenario from the scenario
    #: registry.  The scenario then supplies cluster, workload, round duration
    #: and the churn timeline (whose firings record as ``cluster`` events);
    #: ``num_jobs``/``num_nodes``/... above are ignored.  ``scenario_smoke``
    #: selects the registry's shrunk smoke variant.
    scenario: Optional[str] = None
    scenario_smoke: bool = False
    #: Trace generator name (``WORKLOAD_GENERATORS``) and its extra keyword
    #: arguments as ``(name, value)`` pairs -- ``WorkloadSpec.params``' shape,
    #: e.g. ``(("tracked_window", (80, 220)),)``.  Ignored under ``scenario``.
    workload: str = "philly"
    workload_params: Tuple[Tuple[str, object], ...] = ()
    #: Admission policy name (``ADMISSION_POLICIES``), every mode.
    admission: str = "accept-all"

    def __post_init__(self) -> None:
        from repro.federation.router import ROUTER_FACTORIES
        from repro.policies.admission import ADMISSION_POLICIES
        from repro.policies.placement import PLACEMENT_POLICIES
        from repro.policies.scheduling import SCHEDULING_POLICIES
        from repro.workloads import WORKLOAD_GENERATORS, workload_param_names

        if self.mode not in MODES:
            raise TraceFormatError(f"unknown run mode {self.mode!r}; expected {MODES}")
        for kind, name, registry in (
            ("policy", self.policy, SCHEDULING_POLICIES),
            ("placement", self.placement, PLACEMENT_POLICIES),
            ("admission", self.admission, ADMISSION_POLICIES),
            ("workload", self.workload, WORKLOAD_GENERATORS),
        ):
            if name not in registry:
                raise TraceFormatError(
                    f"unknown {kind} {name!r}; expected one of {sorted(registry)}"
                )
        params = _freeze(self.workload_params)
        if not all(
            isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
            for pair in params
        ):
            raise TraceFormatError(
                f"workload_params must be (name, value) pairs, got {self.workload_params!r}"
            )
        names = [name for name, _ in params]
        unknown = set(names) - workload_param_names(self.workload)
        if unknown or len(set(names)) < len(names):
            raise TraceFormatError(
                f"workload_params names {names} must be distinct and among "
                f"{sorted(workload_param_names(self.workload))} for workload {self.workload!r}"
            )
        object.__setattr__(self, "workload_params", params)
        if self.num_jobs < 1 or self.num_nodes < 1 or self.gpus_per_node < 1:
            raise TraceFormatError("num_jobs, num_nodes and gpus_per_node must be >= 1")
        # Specs arrive from the CLI and from trace headers: reject here what
        # the engine constructors would otherwise reject mid-recording.
        if not (self.jobs_per_hour > 0 and self.round_duration > 0):
            raise TraceFormatError("jobs_per_hour and round_duration must be > 0")
        if self.scenario is not None:
            from repro.scenarios.registry import scenario_names

            if self.mode == "federation":
                raise TraceFormatError(
                    "scenario runs are core/runtime only (federation shards "
                    "take per-shard managers from their shard factory)"
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
        known = {f.name for f in fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise TraceFormatError(
                f"run spec has unknown fields {sorted(unknown)}; "
                "was it recorded by a newer version?"
            )
        return cls(**record)

    # ------------------------------------------------------------------

    def trace(self):
        """The seeded workload this spec describes."""
        from repro.workloads import WorkloadSpec

        return WorkloadSpec(
            self.workload, self.num_jobs, self.jobs_per_hour, self.workload_params
        ).build(self.seed)

    def cluster(self):
        """A fresh homogeneous V100 cluster."""
        from repro.cluster.builder import build_cluster

        return build_cluster(num_nodes=self.num_nodes, gpus_per_node=self.gpus_per_node)

    def build(
        self,
        sink: Optional[TraceSink] = None,
        workers: Optional[int] = None,
        **engine_kwargs,
    ):
        """The unstarted engine for this spec's mode; ``.run()`` executes it.

        ``sink`` turns recording on.  ``engine_kwargs`` reach the engine
        constructor (every shard's, in federation mode), so the stepping
        reference of any spec is ``spec.build(fast_forward=False)``.
        ``workers`` (federation mode only) runs the same shards in that many
        worker processes instead of in this one; only then may keywords name
        a :class:`~repro.federation.parallel.WorkerPoolBackend` parameter
        (``supervisor``, ``kill_plan``, ``collect_timeout_s``, ...).  On both
        backends ``jobs`` / ``tracked_job_ids`` replace the spec's trace (a
        lazy stream for ``run_stream()``) and ``cluster_manager_factory`` /
        ``trace_dir`` are shard-recipe fields.
        """
        from repro.policies.admission import ADMISSION_POLICIES
        from repro.policies.placement import PLACEMENT_POLICIES
        from repro.policies.scheduling import SCHEDULING_POLICIES

        scheduling = SCHEDULING_POLICIES[self.policy]
        placement = PLACEMENT_POLICIES[self.placement]
        admission = ADMISSION_POLICIES[self.admission]

        def recorder(source: str) -> Optional[TraceRecorder]:
            if sink is None:
                return None
            from repro.telemetry.recorder import TraceRecorder

            return TraceRecorder(sink, source=source)

        if self.mode == "federation":
            from repro.federation.engine import (
                FederationEngine,
                LocalShardBackend,
                UniformShardFactory,
            )
            from repro.federation.router import make_router

            def take(*names: str) -> Dict[str, object]:
                return {k: engine_kwargs.pop(k) for k in names if k in engine_kwargs}

            jobs = engine_kwargs.pop("jobs", None)
            tracked = engine_kwargs.pop("tracked_job_ids", None)
            if jobs is None:
                trace = self.trace()
                jobs, tracked = trace.fresh_jobs(), trace.tracked_ids()
            pool_kwargs = take(*_POOL_KEYWORDS)
            factory = UniformShardFactory(
                nodes_per_shard=self.num_nodes // self.shards,
                scheduling_factory=scheduling,
                placement_factory=placement,
                admission_factory=admission,
                gpus_per_node=self.gpus_per_node,
                round_duration=self.round_duration,
                **take("cluster_manager_factory", "trace_dir"),
                engine_kwargs=engine_kwargs,
            )
            if workers is not None:
                from repro.federation.parallel import WorkerPoolBackend

                backend = WorkerPoolBackend(
                    factory, self.shards, workers, recorder=recorder("federation"), **pool_kwargs
                )
            elif pool_kwargs:
                raise TraceFormatError(
                    f"build() keywords {sorted(pool_kwargs)} configure the worker "
                    "pool; pass workers= as well"
                )
            else:
                backend = LocalShardBackend(
                    [factory.build(i, recorder(f"shard{i}")) for i in range(self.shards)]
                )
            return FederationEngine(
                backend, make_router(self.router), jobs, tracked, recorder("federation")
            )
        if workers is not None:
            raise TraceFormatError("build(workers=...) needs a federation-mode spec")

        if self.scenario is not None:
            from repro.scenarios.registry import get_scenario

            if "cluster_manager" in engine_kwargs:
                raise TraceFormatError(
                    f"scenario {self.scenario!r} supplies the cluster manager; "
                    "build(cluster_manager=...) would be replaced by it"
                )
            compiled = get_scenario(self.scenario, smoke=self.scenario_smoke).compile(
                seed=self.seed
            )
            cluster, trace = compiled.build_cluster(), compiled.trace
            round_duration = compiled.spec.round_duration
            engine_kwargs["cluster_manager"] = compiled.make_cluster_manager()
        else:
            cluster, trace = self.cluster(), self.trace()
            round_duration = self.round_duration
        if self.mode == "runtime":
            from repro.runtime.central_scheduler import CentralScheduler
            from repro.simulator.overheads import OverheadModel

            engine_cls, source = CentralScheduler, "runtime"
            engine_kwargs.setdefault("lease_protocol", "optimistic")
            engine_kwargs.setdefault("overhead_model", OverheadModel())
        else:
            from repro.simulator.engine import Simulator

            engine_cls, source = Simulator, "sim"
        return engine_cls(
            cluster_state=cluster,
            jobs=trace.fresh_jobs(),
            scheduling_policy=scheduling(),
            placement_policy=placement(),
            admission_policy=admission(),
            round_duration=round_duration,
            tracked_job_ids=trace.tracked_ids(),
            recorder=recorder(source),
            **engine_kwargs,
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
    spec.build(sink).run()
    flush = getattr(sink, "flush", None)
    if flush is not None:
        flush()
