"""Federation scaling: simulation throughput vs shard count and worker count.

The horizontal-scaling headline of the federation layer (``docs/federation.md``):
the 64-node benchmark cluster is split into 1..8 equal shards, each running
its own FIFO + consolidated scheduling loop, with a router distributing the
seeded Philly workload across them.  Total GPU capacity and offered load are
constant across the sweep, so the series isolates what sharding buys
(smaller per-round scheduling/placement state, independently fast-forwarding
shards -- higher aggregate rounds/s) and what it costs (loss of global
placement freedom -- makespan/JCT inflation), and how much of that cost a
predictive router recovers over the static baseline.

``--workers`` adds the cores axis: the same sweep executed on a
:class:`~repro.federation.parallel.WorkerPoolBackend` with the given worker
count(s) (``0`` = shards in this process), so
one table shows how wall clock scales with processes at fixed shards --
results are bit-identical across the workers axis by construction, only the
timing columns move.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Sequence

from repro.experiments.harness import ExperimentTable
from repro.federation.router import router_names
from repro.telemetry.runspec import RunSpec

#: The seeded Philly benchmark workload as a federation: 600 jobs at 8/h on
#: 64 nodes; the smoke run is ``RunSpec``'s default 60 jobs at 4/h on 16.
FULL = RunSpec(mode="federation", num_jobs=600, jobs_per_hour=8.0, num_nodes=64)
SMOKE = RunSpec(mode="federation", num_nodes=16)

DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
DEFAULT_ROUTERS = ("round-robin", "queue-delay")
#: Default workers axis: in-process shards only (the historical sweep).
DEFAULT_WORKERS = (0,)


def run_federation_point(
    router: str,
    num_shards: int,
    total_nodes: int,
    smoke: bool = False,
    workers: int = 0,
):
    """One sweep point: a fresh federation of ``num_shards`` equal shards.

    ``workers=0`` runs the shards in this process; ``workers>=1`` in that
    many worker processes (at most one per shard).
    """
    spec = replace(
        SMOKE if smoke else FULL, router=router, shards=num_shards, num_nodes=total_nodes
    )
    return spec.build(workers=min(workers, num_shards) if workers >= 1 else None).run()


def run_federation_scaling(
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    routers: Sequence[str] = DEFAULT_ROUTERS,
    smoke: bool = False,
    workers: Sequence[int] = DEFAULT_WORKERS,
) -> ExperimentTable:
    """Throughput/quality series, one row per (router, shards, workers).

    ``shard_counts`` is swept in ascending order and ``throughput_scaling``
    is normalised per router to the first (serial, smallest-count) row, so
    the column reads as speedup over the closest thing to a 1-shard serial
    baseline regardless of the order the caller passes counts in.
    """
    shard_counts = sorted(set(shard_counts))
    workers = sorted(set(workers))
    total_nodes = (SMOKE if smoke else FULL).num_nodes
    table = ExperimentTable(
        name="fig-federation-scaling",
        description=(
            f"Sharded federation on the {total_nodes * RunSpec.gpus_per_node}-GPU "
            "Philly benchmark workload: aggregate rounds/s and schedule quality "
            "vs shard count and worker processes (total capacity held constant; "
            "workers=0 runs the shards in-process)."
        ),
        metadata={"total_nodes": total_nodes, "smoke": smoke, "workers": list(workers)},
    )
    for router in routers:
        baseline_rps = None
        for count in shard_counts:
            if total_nodes % count:
                raise ValueError(
                    f"shard count {count} does not divide {total_nodes} nodes"
                )
            for worker_count in workers:
                result = run_federation_point(
                    router, count, total_nodes, smoke=smoke, workers=worker_count
                )
                stats = result.pooled_stats()
                rps = (
                    result.total_rounds() / result.wall_time_s
                    if result.wall_time_s > 0
                    else float("inf")
                )
                if baseline_rps is None:
                    baseline_rps = rps
                table.add_row(
                    router=router,
                    num_shards=count,
                    workers=result.workers,
                    rounds_per_sec=round(rps, 1),
                    throughput_scaling=round(rps / baseline_rps, 2),
                    wall_s=round(result.wall_time_s, 3),
                    routing_s=round(result.routing_time_s, 3),
                    advance_s=round(result.advance_time_s, 3),
                    makespan_h=round(stats.makespan / 3600.0, 2),
                    avg_jct_h=round(stats.avg_jct / 3600.0, 2),
                    p99_jct_h=round(stats.p99_jct / 3600.0, 2),
                    finished=stats.count,
                )
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fig_federation_scaling",
        description=(
            "Federation throughput scaling, 1 -> 8 shards at constant "
            "capacity, optionally across worker-process counts."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small configuration (16 nodes, 60 jobs) for CI",
    )
    parser.add_argument(
        "--shards",
        type=int,
        action="append",
        help="shard count to sweep; repeatable (default: 1 2 4 8)",
    )
    parser.add_argument(
        "--router",
        action="append",
        choices=router_names(),
        help="router(s) to sweep; repeatable (default: round-robin, queue-delay)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        action="append",
        help=(
            "worker-process count to sweep; repeatable; 0 = in-process shards "
            "(default: 0 only)"
        ),
    )
    args = parser.parse_args(argv)
    shard_counts = tuple(args.shards) if args.shards else DEFAULT_SHARD_COUNTS
    if args.smoke:
        shard_counts = tuple(c for c in shard_counts if c <= 4) or (1, 2, 4)
    routers = tuple(args.router) if args.router else DEFAULT_ROUTERS
    workers = tuple(args.workers) if args.workers else DEFAULT_WORKERS
    table = run_federation_scaling(shard_counts, routers, smoke=args.smoke, workers=workers)
    print(table.to_text())
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
