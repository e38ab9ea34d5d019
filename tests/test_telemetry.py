"""Telemetry tests: schema, sinks, merges, parity, replay/diff, CLI, dashboard.

The contracts under test:

* the versioned schema round-trips through both file sinks (JSONL and
  SQLite) byte-for-byte, and malformed records fail loudly;
* per-source monotonic ``seq`` makes multi-stream merges deterministic --
  including across parallel federation workers under *both* the fork and
  spawn start methods (per-shard trace files must be byte-identical);
* recording is schedule-neutral: a traced run is bit-identical to the
  untraced run for every scheduling policy;
* a recorded trace is self-replaying (``run_recorded`` from its own header
  spec reproduces the event stream exactly, in all three modes) and
  ``trace diff`` catches a seeded divergence;
* the CLI exit codes are what CI relies on (0 identical, 1 diverged,
  2 unusable trace);
* the dashboard aggregator folds event streams into the documented snapshot.
"""

import json
import multiprocessing
import pickle

import pytest

from repro.core.exceptions import ConfigurationError
from repro.dashboard import DashboardAggregator, percentile
from repro.federation import (
    FederationEngine,
    LocalShardBackend,
    UniformShardFactory,
    WorkerPoolBackend,
    make_router,
)
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import FifoScheduling, SrtfScheduling, TiresiasScheduling
from repro.simulator.engine import Simulator
from repro.telemetry import (
    EVENT_DECISION,
    EVENT_JOB,
    EVENT_ROUND,
    EVENT_SUPERVISOR,
    EVENT_TIMING,
    SCHEMA_VERSION,
    JsonlSink,
    RingBufferSink,
    SqliteSink,
    TraceEvent,
    TraceFollower,
    TraceFormatError,
    TraceHeader,
    TraceRecorder,
    config_hash,
    merge_events,
    open_sink,
    read_trace,
    run_metadata,
)
from repro.telemetry.diff import diff_streams
from repro.telemetry.runspec import RunSpec, run_recorded
from repro.trace import main as trace_main
from repro.workloads.philly import generate_philly_trace

ROUND = 300.0

SAMPLE_EVENTS = [
    TraceEvent("sim", 1, 0.0, EVENT_ROUND, {"running": 3, "queued": 1}),
    TraceEvent("sim", 2, 300.0, EVENT_JOB, {"job_id": 7, "status": "RUNNING"}),
    TraceEvent("sim", 3, 300.0, EVENT_DECISION, {"launch": [[7, [0, 1]]], "suspend": []}),
    # Tricky payloads: quotes, unicode, floats that need repr, empty dict.
    TraceEvent("shard0", 1, 600.0, EVENT_JOB, {"note": 'say "hi" ✓', "f": 0.1}),
    TraceEvent("shard0", 2, 900.0, EVENT_ROUND, {}),
]


def small_trace(num_jobs=30, seed=7, jobs_per_hour=6.0):
    return generate_philly_trace(
        num_jobs=num_jobs, jobs_per_hour=jobs_per_hour, seed=seed
    )


def build_simulator(scheduling, recorder=None, **kwargs):
    from repro.cluster.builder import build_cluster

    trace = small_trace()
    return Simulator(
        cluster_state=build_cluster(
            num_nodes=8, gpus_per_node=4, gpu_type="v100", network_bw_gbps=10.0
        ),
        jobs=trace.fresh_jobs(),
        scheduling_policy=scheduling(),
        placement_policy=ConsolidatedPlacement(),
        round_duration=ROUND,
        recorder=recorder,
        **kwargs,
    )


def completions(result):
    return {j.job_id: j.completion_time for j in result.jobs}


# ----------------------------------------------------------------------
# Schema round-trips
# ----------------------------------------------------------------------


def test_event_record_round_trip():
    for event in SAMPLE_EVENTS:
        assert TraceEvent.from_record(event.as_record()) == event
    with pytest.raises(TraceFormatError):
        TraceEvent.from_record({"source": "sim", "seq": "not-an-int"})


def test_header_round_trip_and_version_gate():
    header = TraceHeader(
        metadata=run_metadata(7, {"k": 1}, started_at=123.0),
        spec=RunSpec().as_dict(),
    )
    restored = TraceHeader.from_record(header.as_record())
    assert restored == header
    assert restored.schema_version == SCHEMA_VERSION
    with pytest.raises(TraceFormatError):
        TraceHeader.from_record({"schema_version": SCHEMA_VERSION + 1})
    with pytest.raises(TraceFormatError):
        TraceHeader.from_record({"metadata": {}})  # no version at all


@pytest.mark.parametrize("fmt", ["jsonl", "sqlite"])
def test_file_sink_round_trip(tmp_path, fmt):
    path = str(tmp_path / f"trace.{fmt}")
    header = TraceHeader(metadata={"seed": 7})
    with open_sink(path, fmt=fmt) as sink:
        assert isinstance(sink, JsonlSink if fmt == "jsonl" else SqliteSink)
        sink.write_header(header)
        for event in SAMPLE_EVENTS:
            sink.emit(event)
    read_header, read_events = read_trace(path)
    assert read_header == header
    assert read_events == SAMPLE_EVENTS


def test_jsonl_lines_are_canonical_json(tmp_path):
    # The hand-assembled fast path must stay byte-identical to the sorted
    # compact encoding of ``as_record`` -- replay parity is byte parity.
    path = str(tmp_path / "trace.jsonl")
    with JsonlSink(path) as sink:
        sink.write_header(TraceHeader(metadata={"seed": 7}))
        for event in SAMPLE_EVENTS:
            sink.emit(event)
    lines = open(path, encoding="utf-8").read().splitlines()[1:]
    # ensure_ascii=False: the canonical form is raw UTF-8, which is what
    # both the stdlib fallback and the orjson accelerator produce.
    expected = [
        json.dumps(e.as_record(), ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        for e in SAMPLE_EVENTS
    ]
    assert lines == expected


def test_open_sink_by_extension(tmp_path):
    assert isinstance(open_sink(str(tmp_path / "t.db")), SqliteSink)
    assert isinstance(open_sink(str(tmp_path / "t.jsonl")), JsonlSink)
    with pytest.raises(TraceFormatError):
        open_sink(str(tmp_path / "t"), fmt="xml")


def test_file_sinks_refuse_pickle(tmp_path):
    # A sink crossing a process/checkpoint boundary would re-emit duplicate
    # records after restore; both file sinks refuse up front.
    for sink in (JsonlSink(str(tmp_path / "a.jsonl")), SqliteSink(str(tmp_path / "a.db"))):
        with sink:
            with pytest.raises(TypeError):
                pickle.dumps(sink)


def test_ring_buffer_bounds_memory():
    sink = RingBufferSink(capacity=2)
    for event in SAMPLE_EVENTS:
        sink.emit(event)
    assert sink.events() == SAMPLE_EVENTS[-2:]
    with pytest.raises(TraceFormatError):
        RingBufferSink(capacity=-1)


def test_trace_follower_incremental(tmp_path):
    path = str(tmp_path / "grow.jsonl")
    sink = JsonlSink(path)
    sink.write_header(TraceHeader(metadata={"seed": 1}))
    sink.emit(SAMPLE_EVENTS[0])
    sink.flush()
    follower = TraceFollower(path)
    assert follower.poll() == [SAMPLE_EVENTS[0]]
    assert follower.header is not None
    sink.emit(SAMPLE_EVENTS[1])
    sink.emit(SAMPLE_EVENTS[2])
    sink.flush()
    # Only the records appended since the previous poll come back.
    assert follower.poll() == [SAMPLE_EVENTS[1], SAMPLE_EVENTS[2]]
    assert follower.poll() == []
    sink.close()


# ----------------------------------------------------------------------
# Deterministic merges
# ----------------------------------------------------------------------


def test_merge_is_order_independent():
    streams = {}
    for event in SAMPLE_EVENTS:
        streams.setdefault(event.source, []).append(event)
    forward = merge_events(list(streams.values()))
    reverse = merge_events(list(reversed(list(streams.values()))))
    assert forward == reverse
    assert forward == sorted(forward, key=TraceEvent.sort_key)
    assert {e.source for e in forward} == set(streams)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_parallel_shard_traces_deterministic(tmp_path, start_method):
    # Worker-side recording: each shard opens its own JSONL sink inside the
    # worker process (factory.trace_dir), so the per-shard stream must be
    # byte-identical to the serial run's -- under both start methods.
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable")
    trace = small_trace(num_jobs=20, seed=3)

    def run(mode_dir, parallel):
        factory = UniformShardFactory(
            nodes_per_shard=4,
            scheduling_factory=FifoScheduling,
            placement_factory=ConsolidatedPlacement,
            round_duration=ROUND,
            trace_dir=str(tmp_path / mode_dir),
        )
        backend = (
            WorkerPoolBackend(factory, 2, 2, mp_context=start_method)
            if parallel
            else LocalShardBackend(factory.build_all(2))
        )
        FederationEngine(
            backend,
            make_router("round-robin"),
            trace.fresh_jobs(),
            tracked_job_ids=trace.tracked_ids(),
        ).run()

    run("serial", parallel=False)
    run("parallel", parallel=True)
    merged = {}
    for mode_dir in ("serial", "parallel"):
        streams = []
        for shard_id in (0, 1):
            path = tmp_path / mode_dir / f"shard-{shard_id}.jsonl"
            serial_path = tmp_path / "serial" / f"shard-{shard_id}.jsonl"
            assert path.read_bytes() == serial_path.read_bytes()
            streams.append(read_trace(str(path))[1])
        merged[mode_dir] = merge_events(streams)
    assert merged["serial"] == merged["parallel"]
    assert merged["serial"]  # actually recorded something


# ----------------------------------------------------------------------
# Recording is schedule-neutral
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheduling", [FifoScheduling, SrtfScheduling, TiresiasScheduling]
)
def test_traced_run_matches_untraced(scheduling):
    untraced = build_simulator(scheduling).run()
    sink = RingBufferSink()
    traced = build_simulator(
        scheduling, recorder=TraceRecorder(sink, source="sim")
    ).run()
    assert completions(untraced) == completions(traced)
    assert untraced.round_log == traced.round_log
    assert untraced.rounds == traced.rounds
    events = sink.events()
    # Every appended round record passed through the trace choke point.
    assert sum(1 for e in events if e.kind == EVENT_ROUND) == len(traced.round_log)
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_round_log_limit_bounds_history():
    full = build_simulator(FifoScheduling).run()
    bounded = build_simulator(FifoScheduling, round_log_limit=5).run()
    disabled = build_simulator(FifoScheduling, round_log_limit=0).run()
    assert bounded.rounds == full.rounds
    assert bounded.round_log == full.round_log[-5:]
    assert disabled.round_log == []
    assert completions(bounded) == completions(full)
    with pytest.raises(ConfigurationError):
        build_simulator(FifoScheduling, round_log_limit=-1)


# ----------------------------------------------------------------------
# Replay determinism + diff
# ----------------------------------------------------------------------


def _spec(mode, **overrides):
    base = dict(
        mode=mode, policy="fifo", seed=11, num_jobs=16, jobs_per_hour=6.0,
        num_nodes=8, round_duration=ROUND,
    )
    base.update(overrides)
    return RunSpec(**base)


@pytest.mark.parametrize("mode", ["core", "runtime", "federation"])
def test_replay_is_bit_identical(mode):
    spec = _spec(mode)
    first, second = RingBufferSink(), RingBufferSink()
    run_recorded(spec, first, started_at=1.0)
    run_recorded(spec, second, write_header=False)
    assert diff_streams(first.events(), second.events()) == []
    assert first.events()  # a replay test over zero events proves nothing
    header = first.header
    assert header.spec == spec.as_dict()
    assert RunSpec.from_dict(header.spec) == spec
    assert header.metadata["seed"] == spec.seed
    assert header.metadata["started_at"] == 1.0


def test_diff_catches_seeded_divergence():
    a, b = RingBufferSink(), RingBufferSink()
    run_recorded(_spec("core"), a)
    run_recorded(_spec("core", seed=12), b)
    divergences = diff_streams(a.events(), b.events())
    assert divergences
    assert any("sim" in line for line in divergences)


def test_diff_skips_nondeterministic_kinds_by_default():
    base = [TraceEvent("sim", 1, 0.0, EVENT_ROUND, {"running": 1})]
    noisy = base + [
        TraceEvent("sim", 2, 0.0, EVENT_TIMING, {"wall_s": 1.23}),
        TraceEvent("sim", 3, 0.0, EVENT_SUPERVISOR, {"action": "restart"}),
    ]
    assert diff_streams(base, noisy) == []
    assert diff_streams(base, noisy, ignore_kinds=frozenset())


def test_runspec_validation():
    with pytest.raises(TraceFormatError):
        RunSpec(mode="dream")
    with pytest.raises(TraceFormatError):
        RunSpec(policy="lottery")
    with pytest.raises(TraceFormatError):
        RunSpec(mode="federation", num_nodes=8, shards=3)
    with pytest.raises(TraceFormatError):
        RunSpec(mode="federation", router="carrier-pigeon")
    with pytest.raises(TraceFormatError):
        RunSpec.from_dict({"mode": "core", "flux_capacitor": 1})
    for bad in ({"round_duration": 0.0}, {"jobs_per_hour": 0.0}, {"gpus_per_node": 0}):
        with pytest.raises(TraceFormatError):
            RunSpec(**bad)


def test_bad_runspec_and_bad_workload_file_raise_the_same_type(tmp_path):
    # One TraceFormatError, whichever module it is imported from: a caller's
    # ``except TraceFormatError`` must not depend on the import it picked.
    import repro.core.exceptions as core_exceptions
    import repro.telemetry.events as telemetry_events
    from repro.workloads.parsers import load_trace_csv

    assert telemetry_events.TraceFormatError is core_exceptions.TraceFormatError
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("job_id,arrival_time\n1,0.0\n")
    raised = []
    for trigger in (lambda: RunSpec(policy="lottery"), lambda: load_trace_csv(bad_csv)):
        with pytest.raises(Exception) as excinfo:
            trigger()
        raised.append(excinfo.type)
    assert raised == [TraceFormatError, TraceFormatError]
    assert issubclass(TraceFormatError, ValueError)


def test_run_metadata_fields():
    meta = run_metadata(42, {"b": 2, "a": 1}, started_at=99.5)
    assert meta["seed"] == 42
    assert meta["started_at"] == 99.5
    assert set(meta) == {"seed", "config_hash", "repro_version", "python", "started_at"}
    # The hash is order-insensitive over the config mapping, but sensitive
    # to its values -- that is what makes it a run fingerprint.
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------


def test_cli_record_replay_diff_show(tmp_path, capsys):
    recorded = str(tmp_path / "run.jsonl")
    spec_args = ["--jobs", "12", "--nodes", "4", "--seed", "11"]
    assert trace_main(["record", *spec_args, "--out", recorded]) == 0
    assert trace_main(["replay", recorded]) == 0
    assert trace_main(["diff", recorded, recorded]) == 0
    other = str(tmp_path / "other.db")
    assert (
        trace_main(
            ["record", *spec_args[:-1], "13", "--out", other, "--format", "sqlite"]
        )
        == 0
    )
    assert trace_main(["diff", recorded, other]) == 1
    assert trace_main(["show", recorded, "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "diverge" in out and "schema_version" in out


def test_cli_rejects_unreplayable_trace(tmp_path):
    # A trace without a run spec in its header cannot be replayed (exit 2),
    # and a missing file is an error, not a traceback.
    bare = str(tmp_path / "bare.jsonl")
    with JsonlSink(bare) as sink:
        sink.write_header(TraceHeader(metadata={"seed": 1}))
        sink.emit(SAMPLE_EVENTS[0])
    assert trace_main(["replay", bare]) == 2
    assert trace_main(["diff", bare, str(tmp_path / "missing.jsonl")]) == 2


@pytest.mark.parametrize(
    "bad_flag", [["--round-duration", "0"], ["--jobs-per-hour", "0"]]
)
def test_cli_record_rejects_bad_spec_before_opening_the_output(tmp_path, bad_flag, capsys):
    # Used to pass RunSpec validation, write a header-only trace, then die
    # with a ConfigurationError traceback from the engine constructor.
    out = tmp_path / "never.jsonl"
    assert trace_main(["record", *bad_flag, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_replay_rejects_bad_header_spec(tmp_path, capsys):
    bad = str(tmp_path / "bad.jsonl")
    with JsonlSink(bad) as sink:
        sink.write_header(
            TraceHeader(metadata={"seed": 1}, spec={**RunSpec().as_dict(), "gpus_per_node": 0})
        )
    assert trace_main(["replay", bad]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_policy_choices_come_from_the_registries(capsys):
    from repro.federation.router import ROUTER_FACTORIES
    from repro.policies.placement import PLACEMENT_POLICIES
    from repro.policies.scheduling import SCHEDULING_POLICIES

    with pytest.raises(SystemExit) as excinfo:
        trace_main(["record", "--help"])
    assert excinfo.value.code == 0
    help_text = capsys.readouterr().out
    for name in (*SCHEDULING_POLICIES, *PLACEMENT_POLICIES, *ROUTER_FACTORIES):
        assert name in help_text
    with pytest.raises(SystemExit) as excinfo:
        trace_main(["record", "--policy", "lottery"])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# Dashboard aggregation
# ----------------------------------------------------------------------


def test_percentile_nearest_rank():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.0
    assert percentile(values, 99) == 4.0
    assert percentile(values, 0) == 1.0
    assert percentile([], 50) is None


def test_dashboard_aggregator_snapshot():
    agg = DashboardAggregator()
    agg.consume(
        [
            TraceEvent("sim", 1, 300.0, EVENT_ROUND, {"running": 3, "queued": 2, "utilization": 0.5}),
            TraceEvent("sim", 2, 600.0, EVENT_ROUND, {"running": 4, "queued": 0, "utilization": 0.75}),
            TraceEvent("sim", 3, 300.0, EVENT_JOB, {"job_id": 1, "op": "tracked", "num_gpus": 2}),
            TraceEvent("sim", 4, 600.0, EVENT_JOB, {"job_id": 1, "op": "status", "status": "COMPLETED", "jct": 450.0}),
            TraceEvent("sim", 5, 600.0, EVENT_JOB, {"job_id": 2, "op": "tracked", "num_gpus": 1}),
        ]
    )
    snap = agg.snapshot()
    assert snap["events"] == 5
    assert snap["sim_time"] == 600.0
    assert snap["jobs"] == {"tracked": 2, "finished": 1, "in_flight": 1}
    assert snap["jct"]["p50"] == 450.0
    # The per-source row reflects the *latest* round event.
    assert snap["sources"]["sim"]["running"] == 4
    text = agg.render_text()
    assert "events" in text and "sim" in text
