"""The skip executor under every resumable-loop surface.

``Simulator._skip`` executes skips *inside* the round loop, so everything built on
the loop's pausability must match the stepping loop (``fast_forward=False``):

* ``_advance_loop(stop_time)`` pause/resume on a plain simulator;
* federation shards (``run_until``/``submit``/``finish`` driven by the
  engine over a ``LocalShardBackend``);
* the deployment path (:class:`CentralScheduler` composes the simulator);
* trace record -> replay -> diff round-trips, including headers recorded
  while the spec still carried an ``engine`` field.
"""

import json
import math
from functools import partial

import pytest

from repro.cluster.builder import build_cluster
from repro.federation.engine import FederationEngine, LocalShardBackend, UniformShardFactory
from repro.federation.router import make_router
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import FifoScheduling, SrtfScheduling, TiresiasScheduling
from repro.runtime.central_scheduler import CentralScheduler
from repro.scenarios.registry import get_scenario
from repro.simulator.engine import Simulator
from repro.simulator.overheads import OverheadModel
from repro.telemetry.events import NONDETERMINISTIC_KINDS, TraceFormatError
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.runspec import RunSpec
from repro.telemetry.sinks import RingBufferSink
from repro.trace import main as trace_main
from repro.workloads.philly import generate_philly_trace

ROUND = 300.0


def small_trace(num_jobs=30, seed=13, jobs_per_hour=6.0):
    return generate_philly_trace(
        num_jobs=num_jobs, jobs_per_hour=jobs_per_hour, seed=seed
    )


def make_sim(trace, **kwargs):
    return Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=FifoScheduling(),
        placement_policy=ConsolidatedPlacement(),
        round_duration=ROUND,
        **kwargs,
    )


def completions(result):
    return {j.job_id: j.completion_time for j in result.jobs}


def assert_identical(first, second):
    assert completions(first) == completions(second)
    assert first.round_log == second.round_log
    assert first.rounds == second.rounds
    assert first.end_time == second.end_time


# ----------------------------------------------------------------------
# Pause/resume on the plain loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fast_forward", [True, False])
def test_paused_and_resumed_loop_matches_uninterrupted_run(fast_forward):
    trace = small_trace()
    uninterrupted = make_sim(trace, fast_forward=fast_forward).run()

    paused = make_sim(trace, fast_forward=fast_forward)
    for stop_time in (2_000.0, 9_000.0, 30_000.0):
        assert paused._advance_loop(stop_time) is False
        assert paused.manager.current_time >= stop_time
    assert paused._advance_loop(None) is True
    assert_identical(uninterrupted, paused.build_result())


def _small_sim(**kwargs):
    return make_sim(small_trace(), **kwargs)


def _low_load_sim(policy, **kwargs):
    # Hours between arrivals: long skips that end only at a pause, not at an
    # arrival or completion.
    spec = RunSpec(policy=policy, num_jobs=40, jobs_per_hour=0.5, num_nodes=8, seed=3)
    return spec.build(**kwargs)


#: Half a round past each hour mark, spread over the low-load arrival span.
LOW_LOAD_STOPS = [h * 3600.0 + 150.0 for h in range(1, 80, 3)]


@pytest.mark.parametrize(
    "build, stops",
    [
        (_small_sim, (1_500.0, 12_000.0)),
        *[(partial(_low_load_sim, p), LOW_LOAD_STOPS) for p in ("fifo", "tiresias", "pollux")],
    ],
    ids=["small-fifo", "low-load-fifo", "low-load-tiresias", "low-load-pollux"],
)
def test_pause_points_match_stepping(build, stops):
    """Default and stepping runs paused at one stop_time stand at the same
    round: the first whose start time is at or after it."""
    default = build()
    stepping = build(fast_forward=False)
    for stop_time in stops:
        for sim in (default, stepping):
            assert sim._advance_loop(stop_time) is False
        pause_round = math.ceil(stop_time / ROUND)
        assert default.manager.round_number == stepping.manager.round_number == pause_round
        assert default.manager.current_time == stepping.manager.current_time
    for sim in (default, stepping):
        assert sim._advance_loop(None) is True
    assert_identical(default.build_result(), stepping.build_result())


# ----------------------------------------------------------------------
# Federation shards
# ----------------------------------------------------------------------


def _run_federation(fast_forward, scheduling=FifoScheduling, router_name="round-robin"):
    trace = small_trace(num_jobs=40, seed=7)
    factory = UniformShardFactory(
        4,
        scheduling,
        ConsolidatedPlacement,
        round_duration=ROUND,
        engine_kwargs={"fast_forward": fast_forward},
    )
    shards = [factory.build(i) for i in range(2)]
    engine = FederationEngine(
        LocalShardBackend(shards),
        make_router(router_name),
        trace.fresh_jobs(),
        tracked_job_ids=trace.tracked_ids(),
    )
    return engine.run()


@pytest.mark.parametrize("scheduling", [FifoScheduling, SrtfScheduling])
def test_federation_shards_match_stepping(scheduling):
    default = _run_federation(True, scheduling=scheduling)
    stepping = _run_federation(False, scheduling=scheduling)
    assert default.assignments == stepping.assignments
    for default_shard, stepping_shard in zip(
        default.shard_results, stepping.shard_results
    ):
        assert_identical(default_shard, stepping_shard)


# ----------------------------------------------------------------------
# Deployment path (CentralScheduler)
# ----------------------------------------------------------------------


def test_central_scheduler_matches_stepping():
    """With the worker-metrics observer (it reports at status transitions,
    not per round) the deployment manager, which overrides prune, still
    batches strides."""
    trace = small_trace(num_jobs=25, seed=21)
    results = []
    for fast_forward in (True, False):
        scheduler = CentralScheduler(
            cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
            jobs=trace.fresh_jobs(),
            scheduling_policy=FifoScheduling(),
            placement_policy=ConsolidatedPlacement(),
            round_duration=ROUND,
            overhead_model=OverheadModel(),
            fast_forward=fast_forward,
        )
        results.append(scheduler.run())
        assert scheduler.leaked_leases() == 0
    assert_identical(*results)


# ----------------------------------------------------------------------
# Telemetry is a parity surface too, not just completions
# ----------------------------------------------------------------------


def _recorded_stream(build, fast_forward):
    sink = RingBufferSink()
    build(TraceRecorder(sink, source="run"), fast_forward).run()
    return [e for e in sink.events() if e.kind not in NONDETERMINISTIC_KINDS]


def _build_core(recorder, fast_forward):
    return make_sim(small_trace(), recorder=recorder, fast_forward=fast_forward)


def _build_scenario(recorder, fast_forward):
    compiled = get_scenario("failure-storm", smoke=True).compile(seed=11)
    return Simulator(
        cluster_state=compiled.build_cluster(),
        jobs=compiled.trace.fresh_jobs(),
        scheduling_policy=TiresiasScheduling(),
        round_duration=compiled.spec.round_duration,
        cluster_manager=compiled.make_cluster_manager(),
        tracked_job_ids=compiled.trace.tracked_ids(),
        recorder=recorder,
        fast_forward=fast_forward,
    )


def _build_runtime(recorder, fast_forward):
    return CentralScheduler(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=small_trace(num_jobs=25, seed=21).fresh_jobs(),
        scheduling_policy=FifoScheduling(),
        round_duration=ROUND,
        overhead_model=OverheadModel(),
        recorder=recorder,
        fast_forward=fast_forward,
    )


@pytest.mark.parametrize("build", [_build_core, _build_scenario, _build_runtime])
def test_recorded_event_stream_matches_stepping(build):
    default = _recorded_stream(build, fast_forward=True)
    assert len(default) > 100
    assert default == _recorded_stream(build, fast_forward=False)


# ----------------------------------------------------------------------
# Trace record / replay / diff
# ----------------------------------------------------------------------


def test_runspec_rejects_the_retired_engine_field():
    spec = RunSpec()
    assert "engine" not in spec.as_dict()
    assert RunSpec.from_dict(spec.as_dict()) == spec
    # ``engine`` was a spec field while two skip engines existed; no checked-in
    # trace carries it any more, so it is an unknown field like any other.
    for value in ("rounds", "events", "instant"):
        with pytest.raises(TraceFormatError, match="unknown fields"):
            RunSpec.from_dict({**spec.as_dict(), "engine": value})
    with pytest.raises(TraceFormatError, match="unknown fields"):
        RunSpec.from_dict({**spec.as_dict(), "turbo": True})


@pytest.mark.parametrize("mode_args", [
    [],
    ["--mode", "runtime"],
    ["--mode", "federation", "--shards", "2"],
    ["--scenario", "steady", "--scenario-smoke"],
])
def test_trace_record_replay_diff(tmp_path, mode_args):
    spec_args = ["--jobs", "12", "--nodes", "4", "--seed", "11", *mode_args]
    recorded = str(tmp_path / "recorded.jsonl")
    assert trace_main(["record", *spec_args, "--out", recorded]) == 0
    assert trace_main(["replay", recorded]) == 0
    assert trace_main(["diff", recorded, recorded]) == 0


def test_trace_replay_rejects_unknown_engine(tmp_path):
    recorded = str(tmp_path / "recorded.jsonl")
    assert trace_main(["record", "--jobs", "6", "--nodes", "4", "--out", recorded]) == 0
    with open(recorded) as handle:
        lines = handle.readlines()
    # A retired field and a generator keyword that does not exist: both are
    # header errors (exit 2), not tracebacks from inside the run.
    for field, value in (("engine", "rounds"), ("workload_params", [["bogus", 1]])):
        header = json.loads(lines[0])
        header["spec"][field] = value
        with open(recorded, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.writelines(lines[1:])
        assert trace_main(["replay", recorded]) == 2
