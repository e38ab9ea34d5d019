"""Scenario-engine tests: determinism, event semantics, fast-forward safety.

The contract under test: compiling a :class:`ScenarioSpec` with a seed is a
pure function (bit-identical event streams and traces), applying the events
keeps the cluster indexes consistent, and running any scenario with
fast-forward on vs. off produces bit-identical schedules -- churn events
bound the skip horizon instead of disabling skipping.
"""

import pytest

from repro.cluster.builder import ClusterSpec, build_cluster
from repro.core.exceptions import ConfigurationError
from repro.metrics.summary import capacity_weighted_utilization, scenario_summary
from repro.policies.scheduling import FifoScheduling, SrtfScheduling, TiresiasScheduling
from repro.scenarios import (
    GpuUpgradeEvent,
    NodeFailureEvent,
    NodeRecoveryEvent,
    ScaleInEvent,
    ScaleOutEvent,
    ScenarioSpec,
    TimelineClusterManager,
    WorkloadSpec,
    get_scenario,
    scenario_names,
)
from repro.scenarios.runner import run_scenario_matrix
from repro.simulator.engine import Simulator


# ----------------------------------------------------------------------
# Compilation determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_compile_is_deterministic(name):
    spec = get_scenario(name, smoke=True)
    first = spec.compile(42)
    second = spec.compile(42)
    assert first.events == second.events
    assert [(j.job_id, j.arrival_time, j.num_gpus, j.duration) for j in first.trace.jobs] == [
        (j.job_id, j.arrival_time, j.num_gpus, j.duration) for j in second.trace.jobs
    ]


def test_events_are_sorted_by_time():
    for name in scenario_names():
        events = get_scenario(name, smoke=True).compile(3).events
        times = [e.time for e in events]
        assert times == sorted(times), name


def test_unknown_scenario_raises():
    with pytest.raises(ConfigurationError):
        get_scenario("no-such-scenario")


# ----------------------------------------------------------------------
# Event semantics
# ----------------------------------------------------------------------


def test_scale_out_adds_typed_nodes():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    ScaleOutEvent(time=0.0, num_nodes=2, gpus_per_node=8, gpu_type="a100").apply(cluster)
    assert cluster.num_nodes == 4
    assert cluster.total_gpus == 8 + 16
    added = cluster.node(3)
    assert added.gpu_type.name == "a100"
    assert added.num_gpus == 8
    cluster.check_invariants()


def test_scale_in_removes_newest_and_evicts():
    cluster = build_cluster(num_nodes=4, gpus_per_node=4)
    gpus = [g.gpu_id for g in cluster.gpus_on_node(3)]
    cluster.assign(7, gpus[:2])
    evicted = ScaleInEvent(time=0.0, num_nodes=2).apply(cluster)
    assert evicted == [7]
    assert sorted(cluster.nodes) == [0, 1]
    cluster.check_invariants()


def test_scale_in_never_empties_the_cluster():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    ScaleInEvent(time=0.0, num_nodes=5).apply(cluster)
    assert cluster.num_nodes == 1
    cluster.check_invariants()


def test_gpu_upgrade_replaces_type_in_place():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    gpus = [g.gpu_id for g in cluster.gpus_on_node(1)]
    cluster.assign(5, gpus)
    evicted = GpuUpgradeEvent(time=0.0, node_ids=(1,), gpu_type="a100").apply(cluster)
    assert evicted == [5]
    assert sorted(cluster.nodes) == [0, 1]
    assert cluster.node(1).gpu_type.name == "a100"
    assert cluster.node(0).gpu_type.name == "v100"
    assert cluster.num_free_gpus("a100") == 4
    cluster.check_invariants()


def test_failure_and_recovery_are_graceful():
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    affected = NodeFailureEvent(time=0.0, node_ids=(0, 99)).apply(cluster)
    assert affected == []
    assert cluster.nodes[0].failed
    # Failing an already-failed node and recovering an unknown one are no-ops.
    NodeFailureEvent(time=1.0, node_ids=(0,)).apply(cluster)
    NodeRecoveryEvent(time=2.0, node_ids=(99,)).apply(cluster)
    NodeRecoveryEvent(time=3.0, node_ids=(0,)).apply(cluster)
    assert not cluster.nodes[0].failed
    cluster.check_invariants()


# ----------------------------------------------------------------------
# Timeline cluster manager
# ----------------------------------------------------------------------


def test_timeline_manager_applies_due_events_and_bounds_skipping():
    cluster = build_cluster(num_nodes=3, gpus_per_node=4)
    manager = TimelineClusterManager(
        [
            NodeFailureEvent(time=600.0, node_ids=(1,)),
            NodeRecoveryEvent(time=1200.0, node_ids=(1,)),
        ]
    )
    assert manager.update(cluster, 0.0) == []
    assert manager.next_event_time(0.0) == 600.0
    assert manager.update(cluster, 300.0) == []
    manager.update(cluster, 600.0)
    assert cluster.nodes[1].failed
    assert manager.next_event_time(600.0) == 1200.0
    manager.update(cluster, 1500.0)  # late call still applies the due event
    assert not cluster.nodes[1].failed
    assert manager.next_event_time(1500.0) is None
    assert manager.events_applied == 2
    assert manager.pending_events == 0


def test_timeline_manager_keeps_fast_forward_enabled():
    from repro.workloads.philly import generate_philly_trace

    trace = generate_philly_trace(num_jobs=5, jobs_per_hour=6.0, seed=1)
    sim = Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=FifoScheduling(),
        cluster_manager=TimelineClusterManager([NodeFailureEvent(time=600.0, node_ids=(0,))]),
        fast_forward=True,
    )
    assert sim.fast_forward is True


# ----------------------------------------------------------------------
# Fast-forward safety under churn
# ----------------------------------------------------------------------


def _run_scenario(compiled, scheduling_factory, fast_forward):
    return Simulator(
        cluster_state=compiled.build_cluster(),
        jobs=compiled.trace.fresh_jobs(),
        scheduling_policy=scheduling_factory(),
        cluster_manager=compiled.make_cluster_manager(),
        round_duration=compiled.spec.round_duration,
        tracked_job_ids=compiled.trace.tracked_ids(),
        fast_forward=fast_forward,
    ).run()


def assert_identical(first, second):
    assert first.rounds == second.rounds
    assert {j.job_id: j.completion_time for j in first.jobs} == {
        j.job_id: j.completion_time for j in second.jobs
    }
    assert first.round_log == second.round_log
    assert first.eviction_count == second.eviction_count


@pytest.mark.parametrize(
    "scenario_name,scheduling_factory",
    [
        ("failure-storm", FifoScheduling),
        ("failure-storm", TiresiasScheduling),
        ("scale-cycle", FifoScheduling),
        ("scale-cycle", SrtfScheduling),
        ("bernoulli-churn", TiresiasScheduling),
        ("rolling-upgrade", FifoScheduling),
    ],
)
def test_fast_forward_parity_under_churn(scenario_name, scheduling_factory):
    """Same spec + seed => bit-identical schedules with fast-forward on vs. off."""
    compiled = get_scenario(scenario_name, smoke=True).compile(11)
    assert compiled.events, "churn scenario must compile to a non-empty timeline"
    with_skip = _run_scenario(compiled, scheduling_factory, fast_forward=True)
    without_skip = _run_scenario(compiled, scheduling_factory, fast_forward=False)
    assert_identical(without_skip, with_skip)


def test_churn_actually_evicts_jobs():
    compiled = get_scenario("spot-market", smoke=True).compile(11)
    result = _run_scenario(compiled, FifoScheduling, fast_forward=True)
    assert result.eviction_count > 0
    summary = scenario_summary(
        result.jobs, result.tracked_job_ids, result.round_log, result.eviction_count
    )
    assert summary.eviction_count == result.eviction_count
    assert summary.preemption_count >= summary.eviction_count
    assert 0.0 < summary.capacity_weighted_utilization <= 1.0


# ----------------------------------------------------------------------
# Capacity-weighted utilisation
# ----------------------------------------------------------------------


def test_capacity_counters_weight_by_compute_factor():
    cluster = build_cluster(num_nodes=1, gpus_per_node=4, gpu_type="v100")
    ScaleOutEvent(time=0.0, num_nodes=1, gpus_per_node=4, gpu_type="a100").apply(cluster)
    assert cluster.healthy_capacity() == pytest.approx(4 * 1.0 + 4 * 2.2)
    a100_gpus = [g.gpu_id for g in cluster.gpus_on_node(1)]
    cluster.assign(1, a100_gpus)
    assert cluster.busy_capacity() == pytest.approx(4 * 2.2)
    assert cluster.capacity_utilization() == pytest.approx((4 * 2.2) / (4 + 4 * 2.2))
    # Failing the idle V100 node removes its capacity from the denominator.
    cluster.mark_node_failed(0)
    assert cluster.capacity_utilization() == pytest.approx(1.0)
    cluster.check_invariants()


def test_capacity_weighted_utilization_over_round_log():
    class Record:
        def __init__(self, busy, healthy):
            self.busy_capacity = busy
            self.healthy_capacity = healthy

    log = [Record(2.0, 4.0), Record(0.0, 0.0), Record(4.0, 4.0)]
    assert capacity_weighted_utilization(log) == pytest.approx(6.0 / 8.0)
    assert capacity_weighted_utilization([]) == 0.0


# ----------------------------------------------------------------------
# Matrix runner
# ----------------------------------------------------------------------


def test_scenario_matrix_runner_smoke():
    report = run_scenario_matrix(
        smoke=True,
        scenarios=["failure-storm"],
        combos=[("fifo", "consolidated")],
        processes=1,
    )["BENCH_scenarios.json"]
    assert report["gates"]["scenario-matrix parity"]["ok"] is True
    cell = report["cells"]["failure-storm/fifo/consolidated"]
    assert set(cell["legs"]) == {"default", "stepping"}
    assert cell["parity"]["identical"] is True
    assert cell["cluster_events"] > 0
    summary = cell["summary"]
    for key in (
        "avg_jct",
        "p99_jct",
        "preemption_count",
        "eviction_count",
        "capacity_weighted_utilization",
    ):
        assert key in summary


def test_load_spike_preserves_tracked_window_by_id():
    """Spike jobs interleave with the original arrivals; the tracked window
    must keep reporting the *original* jobs, not whatever lands on those
    indices after the re-sort."""
    from repro.workloads.bursty import add_spike
    from repro.workloads.philly import generate_philly_trace

    base = generate_philly_trace(
        num_jobs=20, jobs_per_hour=6.0, seed=2, tracked_window=(5, 15)
    )
    tracked_before = base.tracked_ids()
    spiked = add_spike(base, start_time=0.0, num_jobs=10, seed=3)
    assert spiked.tracked_ids() == tracked_before
    # An untracked base trace tracks everything, spikes included.
    base_all = generate_philly_trace(num_jobs=10, jobs_per_hour=6.0, seed=2)
    spiked_all = add_spike(base_all, start_time=0.0, num_jobs=5, seed=3)
    assert len(spiked_all.tracked_ids()) == 15


def test_spot_wave_rejects_overlapping_waves():
    from repro.scenarios import SpotWave
    from repro.scenarios.spec import CompileContext
    import random

    wave = SpotWave(at=0.0, fraction=0.5, outage=7200.0, period=3600.0, repeat=3)
    with pytest.raises(ConfigurationError):
        wave.compile_events(random.Random(0), CompileContext(node_ids=(0, 1, 2, 3), round_duration=300.0))


def test_zero_target_entries_compile_to_no_events():
    from repro.scenarios import FailNodes
    from repro.scenarios.spec import CompileContext
    import random

    ctx = CompileContext(node_ids=tuple(range(6)), round_duration=300.0)
    entry = FailNodes(at=3600.0, fraction=0.05, recover_after=7200.0)
    assert entry.compile_events(random.Random(0), ctx) == []


def test_scenario_spec_validation():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(generator="nope")
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="", cluster=ClusterSpec(num_nodes=2))
    with pytest.raises(ConfigurationError):
        ScaleInEvent(time=0.0)  # needs node_ids xor num_nodes
    with pytest.raises(ConfigurationError):
        NodeFailureEvent(time=-1.0, node_ids=(0,))
