"""CLI entry point: ``python -m repro.bench [--smoke] [--runtime|--federation] [--out PATH]``."""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.chaos_bench import run_chaos_bench
from repro.bench.core_bench import run_core_bench
from repro.bench.federation_bench import run_federation_bench
from repro.bench.runtime_bench import run_runtime_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Run the scheduler-core benchmark (baseline vs. indexed), or -- "
            "with --runtime -- the deployment-path benchmark (CentralScheduler "
            "vs. plain simulation plus the Fig. 19 lease sweep), or -- with "
            "--federation -- the multi-cluster federation benchmark (router x "
            "shard-count matrix, parity-checked)."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small configuration for CI (seconds instead of minutes)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--runtime",
        action="store_true",
        help=(
            "run the runtime benchmark instead: deployment vs simulation "
            "rounds/s and lease latency across the scenario registry, "
            "schedule-parity checked (writes BENCH_runtime.json)"
        ),
    )
    mode.add_argument(
        "--federation",
        action="store_true",
        help=(
            "run the federation benchmark instead: every routing policy x "
            "shard count on the Philly workload, per-shard fast-forward vs "
            "stepping schedule-parity checked (writes BENCH_federation.json)"
        ),
    )
    mode.add_argument(
        "--events",
        action="store_true",
        help=(
            "run only the skip-executor benchmark: the default simulator vs "
            "the stepping loop (fast_forward=False) on the long-horizon "
            "cell, parity-checked and speedup-gated; merges an 'event_core' "
            "section into BENCH_core.json"
        ),
    )
    mode.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "run the chaos benchmark instead: SIGKILL a federation worker "
            "mid-run (checkpoint/replay recovery must be bit-identical) and "
            "drive the chaos scenario under seeded RPC faults (schedule "
            "parity, zero leaked leases); merges a 'chaos' section into "
            "BENCH_federation.json and BENCH_runtime.json"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "output JSON path (default: BENCH_core.json, BENCH_runtime.json "
            "with --runtime, or BENCH_federation.json with --federation); "
            "'-' to skip writing"
        ),
    )
    parser.add_argument(
        "--no-policies",
        action="store_true",
        help="skip the scheduling-policy x placement benchmark matrix",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help=(
            "worker processes for the federation matrix (default: serial, so "
            "cross-cell rounds/s comparisons are timed fairly; parallel runs "
            "are for parity-only checks; only used with --federation)"
        ),
    )
    parser.add_argument(
        "--shards",
        default=None,
        help=(
            "comma-separated shard counts for the federation matrix, e.g. "
            "'1,2,4,8' (default: the built-in matrix; only used with "
            "--federation)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes per parallel federation cell (default: one per "
            "shard, capped at usable cores and 8; only used with --federation)"
        ),
    )
    parser.add_argument(
        "--routers",
        default=None,
        help=(
            "comma-separated router names to benchmark, e.g. "
            "'round-robin,queue-delay' (default: all; only used with "
            "--federation)"
        ),
    )
    parser.add_argument(
        "--stream",
        type=int,
        default=None,
        metavar="N",
        help=(
            "append the 64-shard streaming demonstration: N jobs consumed "
            "from a lazy arrival iterator with bounded parent memory (only "
            "used with --federation)"
        ),
    )
    args = parser.parse_args(argv)
    if args.runtime:
        default_out = "BENCH_runtime.json"
    elif args.federation:
        default_out = "BENCH_federation.json"
    else:
        default_out = "BENCH_core.json"
    out_path = None if args.out == "-" else (args.out or default_out)
    if args.chaos:
        # --chaos merges into both bench reports; --out - skips writing, any
        # other --out value is rejected (there is no single output file).
        if args.out not in (None, "-"):
            parser.error("--chaos writes BENCH_federation.json and "
                         "BENCH_runtime.json; only '--out -' is supported")
        write = args.out != "-"
        report = run_chaos_bench(
            smoke=args.smoke,
            federation_out="BENCH_federation.json" if write else None,
            runtime_out="BENCH_runtime.json" if write else None,
            started_at=time.time(),
        )
    elif args.events:
        from repro.bench.event_bench import run_event_bench

        section = run_event_bench(smoke=args.smoke)
        report = {"event_core": section}
        if out_path is not None:
            # Merge into the existing core report rather than clobbering it:
            # the event bench is a section of BENCH_core.json, not a file.
            try:
                with open(out_path) as handle:
                    report = json.load(handle)
            except (OSError, ValueError):
                report = {}
            report["event_core"] = section
            with open(out_path, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=False)
                handle.write("\n")
    elif args.runtime:
        report = run_runtime_bench(
            smoke=args.smoke, out_path=out_path, started_at=time.time()
        )
    elif args.federation:
        report = run_federation_bench(
            smoke=args.smoke,
            out_path=out_path,
            processes=args.processes,
            shard_counts=(
                [int(part) for part in args.shards.split(",")] if args.shards else None
            ),
            workers=args.workers,
            routers=args.routers.split(",") if args.routers else None,
            stream_jobs=args.stream,
            started_at=time.time(),
        )
    else:
        report = run_core_bench(
            smoke=args.smoke,
            out_path=out_path,
            policies=not args.no_policies,
            started_at=time.time(),
        )
    json.dump(report, sys.stdout, indent=2)
    print()
    if args.chaos:
        failed = []
        federation = report["federation"]
        runtime = report["runtime"]
        if not federation["all_kill_parity"]:
            failed.append("kill-one-worker schedule parity")
        if not federation["all_kills_recovered"]:
            failed.append("worker restarts recorded")
        if not federation["degrade_ok"]:
            failed.append("degradation job conservation")
        if not runtime["all_schedule_parity"]:
            failed.append("schedule parity under RPC faults")
        if not runtime["zero_leaked_leases"]:
            failed.append("zero leaked leases")
        if not runtime["recovery_counters_nonzero"]:
            failed.append("nonzero retry/recovery counters")
        if failed:
            print(f"chaos bench FAILED: {', '.join(failed)}", file=sys.stderr)
            return 1
    if args.runtime:
        failed = []
        if not report["all_schedule_parity"]:
            failed.append("schedule parity")
        claims = report["lease_scaling"]["claims"]
        failed.extend(f"lease claim {name}" for name, ok in claims.items() if not ok)
        if failed:
            print(f"runtime bench FAILED: {', '.join(failed)}", file=sys.stderr)
            return 1
    if args.federation:
        failed = []
        if not report["all_schedule_parity"]:
            failed.append("schedule parity")
        if not report["all_parallel_parity"]:
            failed.append("serial/parallel parity")
        if not report["multi_shard_gain_ok"]:
            failed.append(
                "multi-shard rounds/s gain (need >= 2 routers, got "
                + str(report["multi_shard_gain_routers"])
                + ")"
            )
        scaling = report["scaling"]
        if not scaling["parallel_parity"]:
            failed.append("scaling-cell serial/parallel parity")
        if not scaling["speedup_ok"]:
            failed.append(
                f"parallel speedup >= {scaling['speedup_gate']}x "
                f"(measured {scaling['measured_speedup']}x)"
            )
        stream = report.get("stream_demo")
        if stream is not None and not stream["all_jobs_finished"]:
            failed.append("stream demo lost jobs")
        if failed:
            print(f"federation bench FAILED: {', '.join(failed)}", file=sys.stderr)
            return 1
    if not (args.chaos or args.runtime or args.federation or args.events):
        telemetry = report["telemetry"]
        if telemetry["gated"] and not telemetry["overhead_ok"]:
            print(
                "core bench FAILED: telemetry recording overhead "
                f"{telemetry['overhead_fraction']:+.2%} exceeds the "
                f"{telemetry['overhead_gate']:.0%} gate",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
