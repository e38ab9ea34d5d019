"""``python -m repro.trace``: record, replay, diff and inspect trace files.

The operator-facing face of :mod:`repro.telemetry`:

* ``record`` -- run a described workload (core / runtime / federation) with
  recording on, writing a self-describing trace (header carries the
  :class:`~repro.telemetry.runspec.RunSpec` plus run metadata);
* ``replay`` -- re-drive the run from the trace's own header and diff the
  fresh event stream against the recorded one (exit 0 iff bit-identical) --
  the CI parity checks, packaged as a debugging tool;
* ``diff`` -- compare two traces event-by-event (per source, in order);
* ``show`` -- print the deterministic ``(time, source, seq)`` merge of a
  trace's per-source streams.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.federation.router import ROUTER_FACTORIES
from repro.policies.admission import ADMISSION_POLICIES
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES
from repro.telemetry.diff import diff_streams
from repro.telemetry.events import NONDETERMINISTIC_KINDS, TraceFormatError, merge_events
from repro.telemetry.runspec import MODES, RunSpec, run_recorded
from repro.telemetry.sinks import RingBufferSink, open_sink, read_trace
from repro.workloads import WORKLOAD_GENERATORS


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = RunSpec()
    parser.add_argument("--mode", choices=MODES, default=defaults.mode)
    parser.add_argument(
        "--policy",
        choices=sorted(SCHEDULING_POLICIES),
        default=defaults.policy,
        help="scheduling policy name",
    )
    parser.add_argument(
        "--placement",
        choices=sorted(PLACEMENT_POLICIES),
        default=defaults.placement,
        help="placement policy name",
    )
    parser.add_argument(
        "--admission",
        choices=sorted(ADMISSION_POLICIES),
        default=defaults.admission,
        help="admission policy name",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOAD_GENERATORS),
        default=defaults.workload,
        help="trace generator name",
    )
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--jobs", type=int, default=defaults.num_jobs, help="workload size")
    parser.add_argument(
        "--jobs-per-hour", type=float, default=defaults.jobs_per_hour, help="arrival rate"
    )
    parser.add_argument("--nodes", type=int, default=defaults.num_nodes, help="cluster nodes")
    parser.add_argument(
        "--shards", type=int, default=defaults.shards, help="federation shard count"
    )
    parser.add_argument(
        "--router",
        choices=sorted(ROUTER_FACTORIES),
        default=defaults.router,
        help="federation router name",
    )
    parser.add_argument(
        "--round-duration", type=float, default=defaults.round_duration
    )
    parser.add_argument(
        "--scenario",
        default=defaults.scenario,
        help="core/runtime mode: run under this named scenario (records its "
        "churn timeline as `cluster` events)",
    )
    parser.add_argument(
        "--scenario-smoke",
        action="store_true",
        help="use the scenario's shrunk smoke variant",
    )


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    return RunSpec(
        mode=args.mode,
        policy=args.policy,
        placement=args.placement,
        admission=args.admission,
        workload=args.workload,
        seed=args.seed,
        num_jobs=args.jobs,
        jobs_per_hour=args.jobs_per_hour,
        num_nodes=args.nodes,
        round_duration=args.round_duration,
        shards=args.shards,
        router=args.router,
        scenario=args.scenario,
        scenario_smoke=args.scenario_smoke,
    )


def _cmd_record(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    sink = open_sink(args.out, fmt=args.format)
    try:
        run_recorded(spec, sink, started_at=time.time())
    finally:
        sink.close()
    _, events = read_trace(args.out)
    print(f"recorded {len(events)} events ({spec.mode}/{spec.policy}) -> {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    header, recorded = read_trace(args.trace)
    if header.spec is None:
        print(
            f"trace {args.trace} has no run spec in its header; "
            "only traces written by 'repro.trace record' (or run_recorded) replay",
            file=sys.stderr,
        )
        return 2
    spec = RunSpec.from_dict(header.spec)
    sink = RingBufferSink()
    run_recorded(spec, sink, write_header=False)
    replayed = sink.events()
    ignore = frozenset() if args.all_kinds else NONDETERMINISTIC_KINDS
    divergences = diff_streams(recorded, replayed, ignore_kinds=ignore)
    if args.out:
        out_sink = open_sink(args.out)
        try:
            out_sink.write_header(spec.header())
            for event in replayed:
                out_sink.emit(event)
        finally:
            out_sink.close()
    if divergences:
        print(
            f"replay DIVERGED from {args.trace} "
            f"({len(recorded)} recorded vs {len(replayed)} replayed events):"
        )
        for line in divergences:
            print(f"  {line}")
        return 1
    print(
        f"replay of {args.trace} is bit-identical "
        f"({len(replayed)} events, mode={spec.mode}, policy={spec.policy})"
    )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    _, events_a = read_trace(args.trace_a)
    _, events_b = read_trace(args.trace_b)
    ignore = frozenset() if args.all_kinds else NONDETERMINISTIC_KINDS
    divergences = diff_streams(events_a, events_b, ignore_kinds=ignore)
    if divergences:
        print(f"{args.trace_a} and {args.trace_b} diverge:")
        for line in divergences:
            print(f"  {line}")
        return 1
    print(
        f"{args.trace_a} and {args.trace_b} are identical "
        f"({len(events_a)} vs {len(events_b)} events; "
        + ("all kinds compared" if args.all_kinds else "non-deterministic kinds skipped")
        + ")"
    )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    header, events = read_trace(args.trace)
    print(json.dumps(header.as_record(), indent=2, sort_keys=True))
    streams: dict = {}
    for event in events:
        streams.setdefault(event.source, []).append(event)
    merged = merge_events(list(streams.values()))
    if args.kind:
        merged = [e for e in merged if e.kind == args.kind]
    shown = merged if args.limit is None else merged[: args.limit]
    for event in shown:
        print(
            f"t={event.time:>12.1f}  {event.source:<12} {event.kind:<12} "
            f"seq={event.seq:<6} {json.dumps(dict(event.payload), sort_keys=True)}"
        )
    if args.limit is not None and len(merged) > args.limit:
        print(f"... ({len(merged) - args.limit} more events)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description=(
            "Record, replay, diff and inspect telemetry traces. A recorded "
            "trace is self-replaying: its header carries the run spec and "
            "seed, and 'replay' re-drives the run and verifies the event "
            "stream is bit-identical."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run a workload with recording on")
    _add_spec_arguments(record)
    record.add_argument("--out", default="trace.jsonl", help="output trace path")
    record.add_argument(
        "--format",
        choices=("jsonl", "sqlite"),
        default=None,
        help="sink format (default: by extension; .db/.sqlite -> sqlite)",
    )

    replay = sub.add_parser(
        "replay", help="re-drive a recorded run and diff the event streams"
    )
    replay.add_argument("trace", help="trace recorded by 'repro.trace record'")
    replay.add_argument("--out", default=None, help="also write the replayed trace here")
    replay.add_argument(
        "--all-kinds",
        action="store_true",
        help="compare wall-clock timing/supervisor events too (normally skipped)",
    )

    diff = sub.add_parser("diff", help="compare two traces event-by-event")
    diff.add_argument("trace_a")
    diff.add_argument("trace_b")
    diff.add_argument(
        "--all-kinds",
        action="store_true",
        help="compare wall-clock timing/supervisor events too (normally skipped)",
    )

    show = sub.add_parser("show", help="print a trace's merged event stream")
    show.add_argument("trace")
    show.add_argument("--limit", type=int, default=40, help="max events to print")
    show.add_argument("--kind", default=None, help="only events of this kind")

    args = parser.parse_args(argv)
    handlers = {
        "record": _cmd_record,
        "replay": _cmd_replay,
        "diff": _cmd_diff,
        "show": _cmd_show,
    }
    try:
        return handlers[args.command](args)
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
