"""One registry, one comparator, one builder.

* ``SCHEDULING_POLICIES`` / ``PLACEMENT_POLICIES`` are keyed by the name the
  built instance reports and cover exactly the exported stock policies;
* every registered name is a valid :class:`RunSpec` and records -> replays
  bit-identically through ``run_recorded`` (every scheduling policy in all
  three modes, every placement in core mode);
* :func:`repro.metrics.parity.schedule_diff` reports each kind of divergence
  -- one completion time, one round record, the round count, the end time,
  one federation routing assignment -- and names exactly that one.
"""

import dataclasses
from types import SimpleNamespace

import pytest

import repro.policies.scheduling as scheduling_pkg
from repro.core.abstractions import ClusterManager, PlacementPolicy, SchedulingPolicy
from repro.federation.parallel import ParallelFederationEngine
from repro.metrics.parity import MISMATCH_LIMIT, schedule_diff
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES
from repro.telemetry.diff import diff_streams
from repro.simulator.overheads import OverheadModel
from repro.telemetry.events import NONDETERMINISTIC_KINDS, TraceFormatError
from repro.telemetry.runspec import MODES, RunSpec, run_recorded
from repro.telemetry.sinks import RingBufferSink

# ----------------------------------------------------------------------
# Registry shape
# ----------------------------------------------------------------------


def test_registries_are_keyed_by_instance_name():
    for registry, base in (
        (SCHEDULING_POLICIES, SchedulingPolicy),
        (PLACEMENT_POLICIES, PlacementPolicy),
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
    assert len(PLACEMENT_POLICIES) == 6


def test_runspec_keeps_its_fields():
    # The builder and the wider registry added no field: what varies between
    # engine legs (fast_forward, round_log_limit, ...) goes through
    # ``build(**engine_kwargs)``, not into the recorded spec.
    assert [f.name for f in dataclasses.fields(RunSpec)] == (
        "mode policy placement seed num_jobs jobs_per_hour num_nodes "
        "gpus_per_node round_duration shards router scenario scenario_smoke"
    ).split()


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
    assert isinstance(engine, ParallelFederationEngine)
    # Shard-recipe keywords configure the shards, the rest the engine.
    assert engine.factory.fast_forward is False and engine.collect_timeout_s == 60.0
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
