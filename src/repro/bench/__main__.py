"""CLI entry point: ``python -m repro.bench [--smoke] [--runtime|--federation|--events|--chaos] [--out PATH]``."""

from __future__ import annotations

import argparse
import time

from repro.bench.cells import finish
from repro.bench.chaos_bench import run_chaos_bench
from repro.bench.core_bench import run_core_bench
from repro.bench.event_bench import run_event_bench
from repro.bench.federation_bench import run_federation_bench
from repro.bench.runtime_bench import run_runtime_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Run one matrix of parity gates: every cell is a RunSpec executed "
            "several ways whose schedules must be bit-identical.  Default: "
            "the scheduler-core cell plus the policy matrix "
            "(BENCH_core.json).  Exits 1 iff an enforced gate is false."
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small configuration for CI (seconds, not minutes)"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--runtime",
        action="store_true",
        help="deployment path vs its stepping twin vs simulation across the "
        "scenario registry, plus the Fig. 19 lease sweep (BENCH_runtime.json)",
    )
    mode.add_argument(
        "--federation",
        action="store_true",
        help="every router x shard count on the Philly workload: fast-forward "
        "vs stepping vs multiprocess (BENCH_federation.json)",
    )
    mode.add_argument(
        "--events",
        action="store_true",
        help="only the skip-executor cell (default vs fast_forward=False on "
        "the long-horizon workload, speedup-gated); merges the 'event_core' "
        "section into BENCH_core.json",
    )
    mode.add_argument(
        "--chaos",
        action="store_true",
        help="SIGKILL a federation worker mid-run and drive the chaos scenario "
        "under seeded RPC faults (recovery must be invisible in the schedule); "
        "merges a 'chaos' section into BENCH_federation.json and BENCH_runtime.json",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: the mode's BENCH_*.json); '-' to skip writing",
    )
    parser.add_argument(
        "--no-policies", action="store_true", help="skip the policy x placement matrix"
    )
    parser.add_argument(
        "--shards",
        default=None,
        help="--federation: comma-separated shard counts, e.g. '1,2,4,8' "
        "(default: the built-in matrix)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="--federation: worker processes per parallel leg (default: one "
        "per shard, capped at usable cores and 8)",
    )
    parser.add_argument(
        "--routers",
        default=None,
        help="--federation: comma-separated router names, e.g. "
        "'round-robin,queue-delay' (default: all)",
    )
    parser.add_argument(
        "--stream",
        type=int,
        default=None,
        metavar="N",
        help="--federation: also run the 64-shard streaming demonstration, N "
        "jobs from a lazy arrival iterator with bounded parent memory",
    )
    args = parser.parse_args(argv)
    if args.chaos and args.out not in (None, "-"):
        # There is no single output file: --chaos extends two artifacts.
        parser.error("--chaos writes BENCH_federation.json and "
                     "BENCH_runtime.json; only '--out -' is supported")
    started_at = time.time()
    if args.chaos:
        updates = run_chaos_bench(args.smoke, started_at)
    elif args.events:
        section = run_event_bench(args.smoke, started_at)
        updates = {"BENCH_core.json": {"sections": {"event_core": section}}}
    elif args.runtime:
        updates = run_runtime_bench(args.smoke, started_at)
    elif args.federation:
        updates = run_federation_bench(
            smoke=args.smoke,
            shard_counts=[int(part) for part in args.shards.split(",")] if args.shards else None,
            workers=args.workers,
            routers=args.routers.split(",") if args.routers else None,
            stream_jobs=args.stream,
            started_at=started_at,
        )
    else:
        updates = run_core_bench(args.smoke, not args.no_policies, started_at)
    return finish(updates, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
