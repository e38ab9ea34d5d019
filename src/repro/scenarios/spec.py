"""Declarative scenario specifications and their deterministic compilation.

A :class:`ScenarioSpec` bundles everything one dynamic-cluster experiment
needs: the initial cluster (:class:`~repro.cluster.builder.ClusterSpec`), a
workload generator reference (:class:`WorkloadSpec`) and a *timeline* of
declarative entries -- scheduled failures and recoveries, capacity scale-out
and scale-in, GPU-generation upgrades, spot-preemption waves, maintenance
windows, Bernoulli churn and load spikes.  Entries may be stochastic ("fail
25% of the nodes"); :meth:`ScenarioSpec.compile` resolves every choice with
a seed into a pre-sampled stream of concrete
:class:`~repro.scenarios.events.ClusterEvent`s plus a concrete trace, so the
same ``(spec, seed)`` pair always yields bit-identical dynamics.

The compiled stream drives a
:class:`~repro.scenarios.timeline.TimelineClusterManager`, whose
``next_event_time`` lets the simulator fast-forward between churn events --
scenario dynamics cost full rounds only where something actually happens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cluster.builder import ClusterSpec, build_cluster_from_spec
from repro.cluster.failures import FailureInjector
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.scenarios.events import (
    ClusterEvent,
    GpuUpgradeEvent,
    NodeFailureEvent,
    NodeRecoveryEvent,
    ScaleInEvent,
    ScaleOutEvent,
)
from repro.scenarios.timeline import TimelineClusterManager
from repro.workloads import WorkloadSpec
from repro.workloads.bursty import add_spike
from repro.workloads.trace import Trace

__all__ = [
    "WorkloadSpec",
    "CompileContext",
    "TimelineEntry",
    "FailNodes",
    "RecoverNodes",
    "ScaleOut",
    "ScaleIn",
    "UpgradeGpus",
    "Maintenance",
    "SpotWave",
    "BernoulliChurn",
    "LoadSpike",
    "ScenarioSpec",
    "CompiledScenario",
]

@dataclass(frozen=True)
class CompileContext:
    """Facts a timeline entry may consult while compiling."""

    #: Node ids of the initial cluster (scale-out ids are assigned later, at
    #: apply time, so stochastic entries sample from the initial pool).
    node_ids: Tuple[int, ...]
    round_duration: float


class TimelineEntry:
    """One declarative element of a scenario timeline.

    Subclasses resolve themselves into concrete cluster events via
    :meth:`compile_events`; the one workload-level entry
    (:class:`LoadSpike`) is handled separately by
    :meth:`ScenarioSpec.compile`, which is the only place that owns the
    trace.  ``rng`` is a per-entry stream derived from the scenario seed and
    the entry's position, so reordering or editing one entry never perturbs
    another's samples.
    """

    def compile_events(
        self, rng: random.Random, ctx: CompileContext
    ) -> List[ClusterEvent]:
        return []


def _resolve_targets(
    rng: random.Random,
    ctx: CompileContext,
    node_ids: Tuple[int, ...],
    count: Optional[int],
    fraction: Optional[float],
    entry_name: str,
) -> Tuple[int, ...]:
    """Resolve an entry's node selection: explicit ids, a count or a fraction.

    Sampling (count/fraction) draws without replacement from the initial
    node pool and returns the chosen ids sorted, so the event's apply order
    is deterministic and readable in logs.
    """
    if node_ids:
        return tuple(node_ids)
    pool = list(ctx.node_ids)
    if fraction is not None:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"{entry_name}: fraction must be in [0, 1]")
        count = int(round(fraction * len(pool)))
    if count is None:
        raise ConfigurationError(
            f"{entry_name} needs node_ids, count or fraction to pick targets"
        )
    count = max(0, min(count, len(pool)))
    return tuple(sorted(rng.sample(pool, count)))


@dataclass(frozen=True)
class FailNodes(TimelineEntry):
    """Fail nodes at ``at``; optionally recover them ``recover_after`` later."""

    at: float
    node_ids: Tuple[int, ...] = ()
    count: Optional[int] = None
    fraction: Optional[float] = None
    recover_after: Optional[float] = None

    def compile_events(self, rng, ctx) -> List[ClusterEvent]:
        targets = _resolve_targets(rng, ctx, self.node_ids, self.count, self.fraction, "FailNodes")
        if not targets:
            return []  # a fraction rounding to zero nodes must not emit no-op events
        events: List[ClusterEvent] = [NodeFailureEvent(time=self.at, node_ids=targets)]
        if self.recover_after is not None:
            if self.recover_after <= 0:
                raise ConfigurationError("FailNodes.recover_after must be > 0")
            events.append(
                NodeRecoveryEvent(time=self.at + self.recover_after, node_ids=targets)
            )
        return events


@dataclass(frozen=True)
class RecoverNodes(TimelineEntry):
    """Recover explicitly named nodes at ``at``."""

    at: float
    node_ids: Tuple[int, ...] = ()

    def compile_events(self, rng, ctx) -> List[ClusterEvent]:
        del rng, ctx
        return [NodeRecoveryEvent(time=self.at, node_ids=self.node_ids)]


@dataclass(frozen=True)
class ScaleOut(TimelineEntry):
    """Add ``num_nodes`` fresh nodes at ``at`` (optionally of a newer GPU type)."""

    at: float
    num_nodes: int
    gpus_per_node: int = 4
    gpu_type: str = "v100"
    network_bw_gbps: float = 10.0

    def compile_events(self, rng, ctx) -> List[ClusterEvent]:
        del rng, ctx
        return [
            ScaleOutEvent(
                time=self.at,
                num_nodes=self.num_nodes,
                gpus_per_node=self.gpus_per_node,
                gpu_type=self.gpu_type,
                network_bw_gbps=self.network_bw_gbps,
            )
        ]


@dataclass(frozen=True)
class ScaleIn(TimelineEntry):
    """Remove capacity at ``at``: named nodes, or the newest ``num_nodes``."""

    at: float
    num_nodes: int = 0
    node_ids: Tuple[int, ...] = ()

    def compile_events(self, rng, ctx) -> List[ClusterEvent]:
        del rng, ctx
        return [ScaleInEvent(time=self.at, node_ids=self.node_ids, num_nodes=self.num_nodes)]


@dataclass(frozen=True)
class UpgradeGpus(TimelineEntry):
    """Rolling GPU-generation upgrade: one node every ``stagger`` seconds."""

    at: float
    gpu_type: str = "a100"
    node_ids: Tuple[int, ...] = ()
    count: Optional[int] = None
    fraction: Optional[float] = None
    stagger: float = 0.0

    def compile_events(self, rng, ctx) -> List[ClusterEvent]:
        targets = _resolve_targets(rng, ctx, self.node_ids, self.count, self.fraction, "UpgradeGpus")
        if self.stagger < 0:
            raise ConfigurationError("UpgradeGpus.stagger must be >= 0")
        if not targets:
            return []
        if self.stagger == 0:
            return [GpuUpgradeEvent(time=self.at, node_ids=targets, gpu_type=self.gpu_type)]
        return [
            GpuUpgradeEvent(
                time=self.at + index * self.stagger,
                node_ids=(node_id,),
                gpu_type=self.gpu_type,
            )
            for index, node_id in enumerate(targets)
        ]


@dataclass(frozen=True)
class Maintenance(TimelineEntry):
    """Planned maintenance window: nodes leave at ``start``, return after ``duration``."""

    start: float
    duration: float
    node_ids: Tuple[int, ...] = ()
    count: Optional[int] = None
    fraction: Optional[float] = None

    def compile_events(self, rng, ctx) -> List[ClusterEvent]:
        if self.duration <= 0:
            raise ConfigurationError("Maintenance.duration must be > 0")
        targets = _resolve_targets(rng, ctx, self.node_ids, self.count, self.fraction, "Maintenance")
        if not targets:
            return []
        return [
            NodeFailureEvent(time=self.start, node_ids=targets),
            NodeRecoveryEvent(time=self.start + self.duration, node_ids=targets),
        ]


@dataclass(frozen=True)
class SpotWave(TimelineEntry):
    """Spot-market preemption waves: a fraction of nodes reclaimed, then back.

    Wave ``k`` (of ``repeat``) reclaims a freshly sampled ``fraction`` of the
    initial node pool at ``at + k * period`` and returns it ``outage``
    seconds later.
    """

    at: float
    fraction: float = 0.25
    outage: float = 3600.0
    period: float = 14400.0
    repeat: int = 1

    def compile_events(self, rng, ctx) -> List[ClusterEvent]:
        if self.repeat < 1:
            raise ConfigurationError("SpotWave.repeat must be >= 1")
        if self.outage <= 0:
            raise ConfigurationError("SpotWave.outage must be > 0")
        if self.repeat > 1 and self.period <= 0:
            raise ConfigurationError("SpotWave.period must be > 0 when repeating")
        if self.repeat > 1 and self.outage > self.period:
            # Overlapping waves would be silently truncated: re-failing an
            # already-failed node is a no-op, so the *earlier* wave's recovery
            # would cut the later wave's outage short.  Fail loudly instead.
            raise ConfigurationError(
                "SpotWave.outage must be <= period (waves may not overlap); "
                f"got outage={self.outage}, period={self.period}"
            )
        events: List[ClusterEvent] = []
        for wave in range(self.repeat):
            start = self.at + wave * self.period
            targets = _resolve_targets(
                rng, ctx, (), None, self.fraction, "SpotWave"
            )
            if not targets:
                continue
            events.append(NodeFailureEvent(time=start, node_ids=targets))
            events.append(NodeRecoveryEvent(time=start + self.outage, node_ids=targets))
        return events


@dataclass(frozen=True)
class BernoulliChurn(TimelineEntry):
    """The classic :class:`~repro.cluster.failures.FailureInjector` process.

    Pre-sampled over ``horizon_rounds`` rounds with the injector's exact
    seed-and-draw-order semantics, so runs match what per-round stepping
    with ``FailureInjector(failure_prob, recovery_prob, seed)`` produced --
    without forcing per-round stepping.  ``seed=None`` derives the stream
    from the scenario seed.
    """

    failure_prob: float
    recovery_prob: float
    horizon_rounds: int
    seed: Optional[int] = None

    def compile_events(self, rng, ctx) -> List[ClusterEvent]:
        seed = self.seed if self.seed is not None else rng.randrange(2**31)
        injector = FailureInjector(
            failure_prob=self.failure_prob,
            recovery_prob=self.recovery_prob,
            seed=seed,
        )
        return injector.compile_timeline(
            ctx.node_ids, ctx.round_duration, self.horizon_rounds
        )


@dataclass(frozen=True)
class LoadSpike(TimelineEntry):
    """Workload-level entry: short jobs flooding in during a window.

    Compiled into extra trace jobs (not cluster events) by
    :meth:`ScenarioSpec.compile`; composes with fast-forward through the
    ordinary arrival bound.
    """

    at: float
    num_jobs: int = 16
    duration_seconds: float = 3600.0
    min_minutes: float = 10.0
    max_minutes: float = 60.0
    repeat: int = 1
    period: float = 86400.0

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise ConfigurationError("LoadSpike.repeat must be >= 1")
        if self.repeat > 1 and self.period <= 0:
            raise ConfigurationError("LoadSpike.period must be > 0 when repeating")

    def inject(self, trace: Trace, seed: int) -> Trace:
        for wave in range(self.repeat):
            trace = add_spike(
                trace,
                start_time=self.at + wave * self.period,
                num_jobs=self.num_jobs,
                duration_seconds=self.duration_seconds,
                seed=seed + wave,
                min_minutes=self.min_minutes,
                max_minutes=self.max_minutes,
            )
        return trace


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully declarative description of one dynamic-cluster scenario."""

    name: str
    cluster: ClusterSpec
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    timeline: Tuple[TimelineEntry, ...] = ()
    round_duration: float = 300.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")
        if self.round_duration <= 0:
            raise ConfigurationError("round_duration must be > 0")

    def compile(self, seed: int) -> "CompiledScenario":
        """Resolve every stochastic choice with ``seed`` into concrete streams.

        Each timeline entry compiles against its own RNG stream derived from
        ``(seed, entry index, entry type)``, so the compilation is a pure
        function of the spec and the seed: same inputs, bit-identical event
        stream and trace, regardless of how many times (or in which process)
        it runs.
        """
        ctx = CompileContext(
            node_ids=tuple(range(self.cluster.num_nodes)),
            round_duration=self.round_duration,
        )
        trace = self.workload.build(seed)
        events: List[ClusterEvent] = []
        for index, entry in enumerate(self.timeline):
            rng = random.Random(f"{seed}/{index}/{type(entry).__name__}")
            if isinstance(entry, LoadSpike):
                trace = entry.inject(trace, seed=rng.randrange(2**31))
            else:
                events.extend(entry.compile_events(rng, ctx))
        events.sort(key=lambda e: e.time)  # stable: equal times keep entry order
        return CompiledScenario(
            spec=self,
            seed=seed,
            trace=trace,
            events=tuple(events),
        )


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario with every random choice made: ready to simulate.

    The event tuple is immutable and shared; per-run mutable state lives in
    the :class:`~repro.scenarios.timeline.TimelineClusterManager`, so call
    :meth:`make_cluster_manager` (and :meth:`build_cluster`,
    ``trace.fresh_jobs()``) once per simulation.
    """

    spec: ScenarioSpec
    seed: int
    trace: Trace
    events: Tuple[ClusterEvent, ...]

    def build_cluster(self) -> ClusterState:
        return build_cluster_from_spec(self.spec.cluster)

    def make_cluster_manager(self) -> TimelineClusterManager:
        return TimelineClusterManager(self.events)

    def with_seed(self, seed: int) -> "CompiledScenario":
        return self.spec.compile(seed)

    def event_times(self) -> List[float]:
        return [event.time for event in self.events]

    def describe(self) -> str:
        cluster = self.spec.cluster
        return (
            f"{self.spec.name}: {cluster.num_nodes}x{cluster.gpus_per_node} "
            f"{cluster.gpu_type} GPUs, {len(self.trace)} jobs, "
            f"{len(self.events)} cluster events"
        )
