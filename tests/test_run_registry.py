"""One registry, one comparator, one builder.

* ``SCHEDULING_POLICIES`` / ``PLACEMENT_POLICIES`` / ``ADMISSION_POLICIES``
  are keyed by the name the built instance reports and cover exactly the
  exported stock policies;
* every registered name is a valid :class:`RunSpec` and records -> replays
  bit-identically through ``run_recorded`` (every scheduling policy in all
  three modes, every admission in all three modes, every placement and
  workload in core mode);
* :func:`repro.metrics.parity.schedule_diff` reports each kind of divergence
  -- one completion time, one round record, the round count, the end time,
  one federation routing assignment -- and names exactly that one.
"""

import dataclasses
import inspect
import json
from types import SimpleNamespace

import pytest

import repro.policies.scheduling as scheduling_pkg
from repro.bench.cells import DEFAULT, REFERENCE_POLICY, SCAN_STATE, STEPPING, Cell, run_cell
from repro.core.abstractions import (
    AdmissionPolicy,
    ClusterManager,
    PlacementPolicy,
    SchedulingPolicy,
)
from repro.federation import FederationEngine, WorkerPoolBackend
from repro.metrics.parity import MISMATCH_LIMIT, schedule_diff
from repro.policies.admission import ADMISSION_POLICIES
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES
from repro.telemetry.diff import diff_streams
from repro.runtime import CentralLeaseManager, OptimisticLeaseManager
from repro.simulator.overheads import ClusterOverheadModel, OverheadModel
from repro.telemetry.events import NONDETERMINISTIC_KINDS, TraceFormatError
from repro.telemetry.runspec import _POOL_KEYWORDS, MODES, RunSpec, run_recorded
from repro.telemetry.sinks import RingBufferSink
from repro.workloads import WORKLOAD_GENERATORS

# ----------------------------------------------------------------------
# Registry shape
# ----------------------------------------------------------------------


def test_registries_are_keyed_by_instance_name():
    for registry, base in (
        (SCHEDULING_POLICIES, SchedulingPolicy),
        (PLACEMENT_POLICIES, PlacementPolicy),
        (ADMISSION_POLICIES, AdmissionPolicy),
    ):
        for name, factory in registry.items():
            policy = factory()
            assert isinstance(policy, base)
            assert policy.name == name
            assert factory() is not policy  # a factory, not a shared instance


def test_scheduling_registry_is_the_export_list():
    exported = {getattr(scheduling_pkg, name) for name in scheduling_pkg.__all__}
    assert set(SCHEDULING_POLICIES.values()) == exported
    assert len(SCHEDULING_POLICIES) == len(exported) == 9
    assert len(PLACEMENT_POLICIES) == 7
    assert len(ADMISSION_POLICIES) == 5
    assert sorted(WORKLOAD_GENERATORS) == ["philly", "philly-spikes", "pollux", "tiresias"]


def test_runspec_keeps_its_fields():
    # What varies between engine legs (fast_forward, round_log_limit, ...)
    # goes through ``build(**engine_kwargs)``, not into the recorded spec; the
    # last three fields are what a figure varies and nothing else could say.
    assert [f.name for f in dataclasses.fields(RunSpec)] == (
        "mode policy placement seed num_jobs jobs_per_hour num_nodes "
        "gpus_per_node round_duration shards router scenario scenario_smoke "
        "workload workload_params admission"
    ).split()


def test_runspec_round_trips_through_json_with_nested_params():
    spec = RunSpec(
        workload="philly-spikes",
        admission="accept-1.2x",
        workload_params=(
            ("tracked_window", (5, 30)),
            ("median_duration_hours", 2.5),
            ("jobs_per_spike", 4),
        ),
    )
    loaded = RunSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert loaded == spec and hash(loaded) == hash(spec)
    assert loaded.workload_params[0] == ("tracked_window", (5, 30))
    assert loaded.trace().tracked_ids() == spec.trace().tracked_ids()
    # Headers recorded before the three fields existed load as the defaults.
    old = {k: v for k, v in RunSpec().as_dict().items() if k not in (
        "workload", "workload_params", "admission")}
    assert RunSpec.from_dict(old) == RunSpec()


@pytest.mark.parametrize(
    "bad",
    [
        {"workload": "imagenet"},
        {"admission": "accept-2x"},
        {"workload_params": (("tracked_window",),)},
        {"workload_params": ((5, 30),)},
        {"workload_params": (("bogus", 1),)},
        {"workload_params": (("seed", 1),)},
        {"workload_params": (("duration_sigma", 1.0), ("duration_sigma", 2.0))},
        {"workload": "pollux", "workload_params": (("jobs_per_spike", 4),)},
    ],
)
def test_runspec_rejects_unknown_workload_and_admission(bad):
    with pytest.raises(TraceFormatError):
        RunSpec(**bad)


# ----------------------------------------------------------------------
# Registry-wide record -> replay
# ----------------------------------------------------------------------


def _assert_replays(spec):
    recorded = RingBufferSink()
    run_recorded(spec, recorded)
    replayed = RingBufferSink()
    # Replay from the header alone, as ``python -m repro.trace replay`` does.
    run_recorded(RunSpec.from_dict(recorded.header.spec), replayed, write_header=False)
    assert recorded.events(), spec
    assert (
        diff_streams(
            recorded.events(), replayed.events(), ignore_kinds=NONDETERMINISTIC_KINDS
        )
        == []
    ), spec


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", sorted(SCHEDULING_POLICIES))
def test_every_scheduling_policy_records_and_replays(policy, mode):
    _assert_replays(RunSpec(mode=mode, policy=policy, num_jobs=30, num_nodes=8))


@pytest.mark.parametrize("placement", sorted(PLACEMENT_POLICIES))
def test_every_placement_records_and_replays(placement):
    _assert_replays(RunSpec(placement=placement, num_jobs=30, num_nodes=8))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("admission", sorted(ADMISSION_POLICIES))
def test_every_admission_records_and_replays(admission, mode):
    # Over-subscribed on purpose (30 jobs at 20/h on 16 GPUs, the trace's
    # widest gang, per cluster or shard) so the thresholds and the per-user
    # quota actually hold jobs back.
    spec = RunSpec(
        mode=mode, policy="las", admission=admission, num_jobs=30,
        jobs_per_hour=20.0, num_nodes=8 if mode == "federation" else 4,
    )
    _assert_replays(spec)
    # ... and the named policy is what every build() branch hands its engine.
    engine = spec.build()
    if mode == "federation":
        built = [shard.admission_policy for shard in engine.backend.shards]
        built.append(spec.build(workers=1).backend.factory.admission_factory())
    else:
        built = [getattr(engine, "_simulator", engine).admission_policy]
    assert [policy.name for policy in built] == [admission] * len(built)


@pytest.mark.parametrize("workload", sorted(WORKLOAD_GENERATORS))
def test_every_workload_records_and_replays(workload):
    _assert_replays(RunSpec(workload=workload, num_jobs=30, num_nodes=8))


def test_admission_changes_the_schedule_it_gates():
    base = RunSpec(policy="las", num_jobs=30, jobs_per_hour=20.0, num_nodes=4)
    open_door = base.build().run()
    gated = dataclasses.replace(base, admission="accept-1x").build().run()
    assert not schedule_diff(open_door, gated).identical
    assert gated.avg_responsiveness() > open_door.avg_responsiveness()


def test_pollux_workload_matches_the_stepping_reference():
    spec = RunSpec(
        policy="pollux", workload="pollux", admission="accept-1.5x",
        num_jobs=40, jobs_per_hour=20.0, num_nodes=4,
        workload_params=(("tracked_window", (5, 30)),),
    )
    assert spec.trace().name.startswith("pollux-")
    diff = schedule_diff(spec.build().run(), spec.build(fast_forward=False).run())
    assert diff.identical, diff.first_divergence


def test_a_figure_spec_is_a_bench_cell_with_every_reference_leg():
    # A Fig. 13 point (LAS behind a threshold, spiked Philly) taken as-is by
    # the cell runner; the two hand-built reference legs gate admission too.
    spec = RunSpec(
        policy="las", admission="accept-1x", workload="philly-spikes",
        num_jobs=30, jobs_per_hour=2.0, num_nodes=4,
        workload_params=(("tracked_window", (5, 25)), ("jobs_per_spike", 4)),
    )
    # 30 jobs at 2 jobs/h span hour 10 of day 0, where the spike lands.
    assert len(spec.trace()) == 34
    row = run_cell(Cell("fig13", spec, (DEFAULT, STEPPING, REFERENCE_POLICY, SCAN_STATE)))
    assert row["parity"]["identical"], row["parity"]["legs"]
    assert row["finished_jobs"] == 20 and row["spec"] == spec.as_dict()


def test_runtime_build_keeps_a_callers_overhead_model_and_protocol():
    spec = RunSpec(mode="runtime", num_jobs=12, num_nodes=4)
    model = ClusterOverheadModel(seed=1)
    engine = spec.build(overhead_model=model, lease_protocol="central")
    assert engine.manager.execution.overheads is model
    assert isinstance(engine.lease_manager, CentralLeaseManager)
    # The no-argument build is what it always was.
    default = spec.build()
    assert type(default.manager.execution.overheads) is OverheadModel
    assert isinstance(default.lease_manager, OptimisticLeaseManager)
    assert not schedule_diff(default.run(), engine.run()).identical


def test_build_forwards_engine_kwargs_in_every_mode():
    for mode in MODES:
        spec = RunSpec(mode=mode, policy="tiresias", num_jobs=20, num_nodes=8)
        default = spec.build().run()
        stepping = spec.build(fast_forward=False).run()
        diff = schedule_diff(default, stepping)
        assert diff.identical, (mode, diff.first_divergence)


def test_scenario_specs_build_in_core_and_runtime_modes():
    results = {
        mode: RunSpec(
            mode=mode, policy="tiresias", scenario="failure-storm", scenario_smoke=True
        )
        .build(overhead_model=OverheadModel())
        .run()
        for mode in ("core", "runtime")
    }
    diff = schedule_diff(results["runtime"], results["core"])
    assert diff.identical, diff.first_divergence
    assert results["core"].eviction_count > 0


def test_build_refuses_to_replace_a_callers_cluster_manager():
    spec = RunSpec(scenario="failure-storm", scenario_smoke=True)
    with pytest.raises(TraceFormatError, match="supplies the cluster manager"):
        spec.build(cluster_manager=ClusterManager())
    # Without a scenario the caller's manager is the engine's.
    manager = ClusterManager()
    assert RunSpec(num_jobs=5).build(cluster_manager=manager).manager.cluster_manager is manager


def test_build_workers_returns_the_multiprocess_federation():
    spec = RunSpec(mode="federation", num_jobs=20, num_nodes=8, shards=2)
    engine = spec.build(workers=2, fast_forward=False, collect_timeout_s=60.0)
    assert isinstance(engine, FederationEngine)
    backend = engine.backend
    assert isinstance(backend, WorkerPoolBackend)
    # Pool keywords configure the pool, the rest every shard the workers build.
    assert backend.collect_timeout_s == 60.0
    assert backend.factory.engine_kwargs == {"fast_forward": False}
    # build()'s pool-keyword list is every pool parameter it does not set itself.
    pool_params = set(inspect.signature(WorkerPoolBackend).parameters)
    assert set(_POOL_KEYWORDS) == pool_params - {"factory", "num_shards", "workers", "recorder"}
    parallel = engine.run()
    assert parallel.workers == 2
    diff = schedule_diff(spec.build().run(), parallel)
    assert diff.identical, diff.first_divergence
    with pytest.raises(TraceFormatError, match="federation-mode"):
        RunSpec().build(workers=2)


# ----------------------------------------------------------------------
# schedule_diff
# ----------------------------------------------------------------------


def _result(completions=None, round_log=None, rounds=3, end_time=900.0):
    completions = completions or {1: 300.0, 2: 600.0, 3: None}
    return SimpleNamespace(
        jobs=[SimpleNamespace(job_id=j, completion_time=t) for j, t in completions.items()],
        round_log=list(round_log or [(0, 0.0, 2), (1, 300.0, 2), (2, 600.0, 1)]),
        rounds=rounds,
        end_time=end_time,
    )


def _federation(assignments=None, shards=None):
    return SimpleNamespace(
        assignments=assignments or {1: 0, 2: 1, 3: 0},
        shard_results=shards or [_result(), _result({4: 450.0})],
    )


def _flags(diff):
    return (
        diff.identical_completion_times,
        diff.identical_round_logs,
        diff.identical_round_count,
        diff.identical_end_time,
    )


def test_identical_results_have_no_divergence():
    for a, b in ((_result(), _result()), (_federation(), _federation())):
        diff = schedule_diff(a, b)
        assert diff.identical and diff.first_divergence is None
        assert _flags(diff) == (True, True, True, True)
        assert diff.mismatched_job_ids == ()
        assert set(diff.as_dict()) == {
            "identical_completion_times",
            "identical_round_logs",
            "identical_round_count",
            "identical_end_time",
        }


def test_one_completion_time_perturbed():
    diff = schedule_diff(_result(), _result({1: 300.0, 2: 600.0000001, 3: None}))
    assert not diff.identical
    assert _flags(diff) == (False, True, True, True)
    assert diff.mismatched_job_ids == (2,)
    assert diff.first_divergence.startswith("job 2 completion time")
    assert diff.as_dict()["first_divergence"] == diff.first_divergence


def test_job_missing_on_one_side_is_not_an_unfinished_job():
    diff = schedule_diff(_result(), _result({1: 300.0, 2: 600.0}))
    assert diff.mismatched_job_ids == (3,)
    assert "job 3" in diff.first_divergence and "absent" in diff.first_divergence


def test_mismatched_job_ids_are_bounded():
    many = {j: float(j) for j in range(100)}
    shifted = {j: t + 1.0 for j, t in many.items()}
    diff = schedule_diff(_result(many), _result(shifted))
    assert diff.mismatched_job_ids == tuple(range(MISMATCH_LIMIT))


def test_one_round_record_perturbed():
    diff = schedule_diff(
        _result(), _result(round_log=[(0, 0.0, 2), (1, 300.0, 1), (2, 600.0, 1)])
    )
    assert _flags(diff) == (True, False, True, True)
    assert diff.first_divergence.startswith("round log index 1 ")
    # A log that is a strict prefix of the other diverges where it ends.
    diff = schedule_diff(_result(), _result(round_log=[(0, 0.0, 2), (1, 300.0, 2)]))
    assert diff.first_divergence.startswith("round log index 2 (3 vs 2 records)")


def test_round_count_perturbed():
    diff = schedule_diff(_result(), _result(rounds=4))
    assert _flags(diff) == (True, True, False, True)
    assert diff.first_divergence == "round count 3 vs 4"


def test_end_time_perturbed():
    diff = schedule_diff(_result(), _result(end_time=900.0000001))
    assert _flags(diff) == (True, True, True, False)
    assert diff.first_divergence == "end time 900.0 vs 900.0000001"


def test_one_federation_assignment_perturbed():
    diff = schedule_diff(_federation(), _federation({1: 0, 2: 0, 3: 0}))
    assert not diff.identical
    assert _flags(diff) == (True, True, True, True)  # every shard still agrees
    assert diff.first_divergence == "job 2 routed to shard 1 vs 0"


def test_federation_divergence_names_the_shard():
    diff = schedule_diff(
        _federation(), _federation(shards=[_result(), _result({4: 451.0})])
    )
    assert _flags(diff) == (False, True, True, True)
    assert diff.mismatched_job_ids == (4,)
    assert diff.first_divergence.startswith("shard 1: job 4 completion time")
    diff = schedule_diff(_federation(), _federation(shards=[_result()]))
    assert diff.first_divergence == "shard count 2 vs 1"
