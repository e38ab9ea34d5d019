"""The ``cluster`` trace kind: scenario timeline firings as telemetry.

Covers the PR-8 follow-on from ROADMAP: `FailNodes`/`SpotWave`/`ScaleOut`
timeline firings stream as first-class, schema-versioned, replay/diff-safe
events -- from the drain API on :class:`TimelineClusterManager`, through the
core, runtime and federation-shard paths (each hands the engine the timeline
itself), up to recorded RunSpec runs being bit-identical across replays.
"""

import dataclasses

import pytest

from repro.core.abstractions import ClusterManager
from repro.cluster.builder import build_cluster
from repro.scenarios.events import (
    GpuUpgradeEvent,
    NodeFailureEvent,
    NodeRecoveryEvent,
    ScaleInEvent,
    ScaleOutEvent,
)
from repro.scenarios.timeline import TimelineClusterManager
from repro.telemetry.events import (
    EVENT_CLUSTER,
    NONDETERMINISTIC_KINDS,
    SCHEMA_VERSION,
    TraceFormatError,
    TraceHeader,
)
from repro.telemetry.runspec import RunSpec, run_recorded
from repro.telemetry.sinks import RingBufferSink


def _cluster(num_nodes=4):
    return build_cluster(num_nodes=num_nodes, gpus_per_node=2, gpu_type="v100")


# ---------------------------------------------------------------------------
# Drain API
# ---------------------------------------------------------------------------


def test_drain_applied_reports_each_firing_once():
    manager = TimelineClusterManager(
        [NodeFailureEvent(time=100.0, node_ids=(1,)),
         NodeRecoveryEvent(time=200.0, node_ids=(1,))]
    )
    state = _cluster()

    assert manager.drain_applied() == []
    manager.update(state, 100.0)
    drained = manager.drain_applied()
    assert [(t, e.kind) for t, e, _ in drained] == [(100.0, "NodeFailureEvent")]
    # Cursor advanced: nothing new until the next firing.
    assert manager.drain_applied() == []

    manager.update(state, 250.0)
    drained = manager.drain_applied()
    assert [(t, e.kind) for t, e, _ in drained] == [(250.0, "NodeRecoveryEvent")]


def test_drain_reports_the_given_events_with_the_ids_update_returned():
    failure = NodeFailureEvent(time=50.0, node_ids=(0, 2))
    scale_out = ScaleOutEvent(time=60.0, num_nodes=1, gpus_per_node=2)
    manager = TimelineClusterManager([scale_out, failure])  # applied in time order
    state = _cluster()
    state.assign(7, [0, 1])  # node 0
    state.assign(8, [4])  # node 2
    affected = manager.update(state, 75.0)
    drained = manager.drain_applied()
    assert [(t, e, ids) for t, e, ids in drained] == [
        (75.0, failure, (7, 8)),
        (75.0, scale_out, ()),
    ]
    assert affected == [7, 8]


def test_default_manager_drains_nothing():
    assert ClusterManager().drain_applied() == []


def test_drain_state_survives_pickle():
    import pickle

    manager = TimelineClusterManager(
        [NodeFailureEvent(time=10.0, node_ids=(0,)),
         NodeRecoveryEvent(time=20.0, node_ids=(0,))]
    )
    state = _cluster()
    manager.update(state, 10.0)
    manager.drain_applied()

    restored = pickle.loads(pickle.dumps(manager))
    # Already-drained firings are not re-reported after checkpoint/restore.
    assert restored.drain_applied() == []
    restored.update(state, 20.0)
    assert [e.kind for _, e, _ in restored.drain_applied()] == ["NodeRecoveryEvent"]


# ---------------------------------------------------------------------------
# Event descriptions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "event, expected",
    [
        (NodeFailureEvent(time=1.0, node_ids=(1, 2)), {"node_ids": [1, 2]}),
        (NodeRecoveryEvent(time=1.0, node_ids=(3,)), {"node_ids": [3]}),
        (
            ScaleOutEvent(time=1.0, num_nodes=2, gpus_per_node=4, gpu_type="a100"),
            {"num_nodes": 2, "gpus_per_node": 4, "gpu_type": "a100"},
        ),
        (
            ScaleInEvent(time=1.0, num_nodes=1),
            {"node_ids": [], "num_nodes": 1},
        ),
        (
            GpuUpgradeEvent(time=1.0, node_ids=(0,), gpu_type="a100"),
            {"node_ids": [0], "gpu_type": "a100"},
        ),
    ],
)
def test_describe_payloads_are_declarative(event, expected):
    import json

    assert event.describe() == expected
    json.dumps(event.describe())  # JSON-safe


# ---------------------------------------------------------------------------
# Recorded runs
# ---------------------------------------------------------------------------


def _record(spec):
    sink = RingBufferSink()
    run_recorded(spec, sink)
    return sink.events()


SCENARIO_SPEC = RunSpec(
    mode="core",
    policy="tiresias",
    scenario="failure-storm",
    scenario_smoke=True,
)


def _assert_cluster_events(events):
    cluster = [e for e in events if e.kind == EVENT_CLUSTER]
    assert cluster, "scenario run must emit cluster trace events"
    for event in cluster:
        assert event.payload["event"].endswith("Event")
        assert event.payload["scheduled_time"] <= event.time
        assert isinstance(event.payload["evicted_jobs"], list)
    # Every eviction caused by churn references a cluster event round.
    eviction_times = {e.time for e in events if e.kind == "eviction"}
    cluster_times = {e.time for e in cluster}
    assert eviction_times <= cluster_times


@pytest.mark.parametrize("mode", ["core", "runtime"])
def test_scenario_run_records_cluster_events(mode):
    _assert_cluster_events(_record(dataclasses.replace(SCENARIO_SPEC, mode=mode)))


def test_shard_scenario_records_cluster_events():
    from repro.federation.engine import (
        FederationEngine,
        LocalShardBackend,
        ScenarioManagerFactory,
    )
    from repro.federation.router import make_router
    from repro.telemetry.recorder import TraceRecorder
    from repro.workloads.philly import generate_philly_trace

    sink = RingBufferSink()
    shard = RunSpec(mode="federation", num_nodes=4, shards=1).shard(
        0,
        TraceRecorder(sink, source="shard0"),
        cluster_manager_factory=ScenarioManagerFactory("failure-storm", smoke=True),
    )
    trace = generate_philly_trace(num_jobs=12, jobs_per_hour=6.0, seed=5)
    FederationEngine(
        LocalShardBackend([shard]),
        make_router("round-robin"),
        trace.fresh_jobs(),
        tracked_job_ids=trace.tracked_ids(),
    ).run()
    _assert_cluster_events(sink.events())


def test_scenario_run_replays_bit_identical():
    first = _record(SCENARIO_SPEC)
    second = _record(SCENARIO_SPEC)
    assert first == second


def test_cluster_kind_is_diffed():
    """Cluster events are deterministic, so replay diffs must check them."""
    assert EVENT_CLUSTER not in NONDETERMINISTIC_KINDS


def test_recording_does_not_perturb_scenario_schedule():
    from repro.scenarios.registry import get_scenario
    from repro.simulator.engine import Simulator
    from repro.policies.scheduling import TiresiasScheduling
    from repro.telemetry.recorder import TraceRecorder

    def run(recorder):
        compiled = get_scenario("failure-storm", smoke=True).compile(seed=7)
        sim = Simulator(
            cluster_state=compiled.build_cluster(),
            jobs=compiled.trace.fresh_jobs(),
            scheduling_policy=TiresiasScheduling(),
            round_duration=compiled.spec.round_duration,
            cluster_manager=compiled.make_cluster_manager(),
            tracked_job_ids=compiled.trace.tracked_ids(),
            recorder=recorder,
        )
        result = sim.run()
        return [(j.job_id, j.completion_time) for j in result.jobs]

    untraced = run(None)
    traced = run(TraceRecorder(RingBufferSink(), source="sim"))
    assert untraced == traced


def test_plain_core_run_emits_no_cluster_events():
    events = _record(RunSpec(mode="core", num_jobs=10, num_nodes=4))
    assert [e for e in events if e.kind == EVENT_CLUSTER] == []


# ---------------------------------------------------------------------------
# Spec validation + schema versioning
# ---------------------------------------------------------------------------


def test_runspec_rejects_scenario_in_federation_mode():
    # Core and runtime specs take a scenario (tests/test_run_registry.py runs
    # both); federation shards get managers from a cluster_manager_factory.
    with pytest.raises(TraceFormatError, match="core/runtime only"):
        RunSpec(mode="federation", scenario="failure-storm")


def test_runspec_rejects_unknown_scenario():
    with pytest.raises(TraceFormatError):
        RunSpec(mode="core", scenario="no-such-scenario")


def test_runspec_scenario_roundtrips_through_dict():
    spec = SCENARIO_SPEC
    assert RunSpec.from_dict(spec.as_dict()) == spec


def test_schema_bumped_and_v1_still_readable():
    assert SCHEMA_VERSION >= 2
    header = TraceHeader.from_record({"schema_version": 1, "metadata": {}})
    assert header.schema_version == 1
    with pytest.raises(TraceFormatError):
        TraceHeader.from_record({"schema_version": SCHEMA_VERSION + 1})
