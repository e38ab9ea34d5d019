"""The ``cluster`` trace kind: scenario timeline firings as telemetry.

Covers the PR-8 follow-on from ROADMAP: `FailNodes`/`SpotWave`/`ScaleOut`
timeline firings stream as first-class, schema-versioned, replay/diff-safe
events -- from the drain API on :class:`TimelineClusterManager`, through the
wrapper managers on the runtime/federation paths, up to recorded RunSpec
runs being bit-identical across replays.
"""

import pytest

from repro.core.abstractions import ClusterManager
from repro.core.cluster_state import ClusterState
from repro.cluster.builder import build_cluster
from repro.federation.shard import BoundedClusterManager
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


def test_drain_matches_applied_log():
    manager = TimelineClusterManager(
        [NodeFailureEvent(time=50.0, node_ids=(0, 2)),
         ScaleOutEvent(time=60.0, num_nodes=1, gpus_per_node=2)]
    )
    state = _cluster()
    manager.update(state, 75.0)
    drained = manager.drain_applied()
    assert [(t, e.kind, ids) for t, e, ids in drained] == manager.applied_log


def test_default_manager_drains_nothing():
    assert ClusterManager().drain_applied() == []


def test_bounded_wrapper_delegates_drain():
    inner = TimelineClusterManager([NodeFailureEvent(time=10.0, node_ids=(0,))])
    wrapper = BoundedClusterManager(inner=inner)
    wrapper.update(_cluster(), 10.0)
    drained = wrapper.drain_applied()
    assert [e.kind for _, e, _ in drained] == ["NodeFailureEvent"]
    assert wrapper.drain_applied() == []


def test_membership_sync_wrapper_delegates_drain():
    from repro.runtime.central_scheduler import MembershipSyncManager

    class _StubLeases:
        def sync_membership(self, cluster_state):
            self.synced = True

    inner = TimelineClusterManager([ScaleInEvent(time=5.0, num_nodes=1)])
    wrapper = MembershipSyncManager(inner, _StubLeases())
    wrapper.update(_cluster(), 5.0)
    drained = wrapper.drain_applied()
    assert [e.kind for _, e, _ in drained] == ["ScaleInEvent"]


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


def test_scenario_run_records_cluster_events():
    events = _record(SCENARIO_SPEC)
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
    # both); federation shards get managers from their shard factory.
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
