"""The federation benchmark: router x shard-count matrix, parity-checked.

``python -m repro.bench --federation`` runs the seeded Philly-style benchmark
workload through every stock :mod:`repro.federation.router` at several shard
counts.  The *total* GPU capacity is held constant across shard counts (the
64-node cluster is split into 1, 2, 4 or 8 equal shards), so every cell
schedules the same offered load and the matrix isolates the effect of
horizontal sharding: per-round policy/placement cost shrinks with shard size
while the scheduling quality (makespan, JCT) pays for the loss of global
placement freedom -- the trade-off the routers are there to manage.

Every cell is simulated twice, with per-shard event-skipping fast-forward on
and with per-round stepping, and must produce bit-identical per-shard
completion times, round logs, round counts *and routing assignments*
(``schedule_parity``) -- routing reads shard state only at pause points, so
fast-forward remains a pure performance feature across the federation layer.
Multi-shard cells are additionally executed on the multiprocess
:class:`~repro.federation.parallel.ParallelFederationEngine` and must match
the serial engine bit-for-bit (``parallel_parity``): worker processes are an
execution detail, never a semantic one.  Each shard's
``ClusterState.check_invariants()`` is asserted after every serial run.

A dedicated *scaling cell* (max shard count, a longer trace) measures the
serial-vs-parallel wall-clock speedup; the >= 3x gate it feeds is enforced
only on machines with >= 8 usable cores (the measurement is still recorded,
with the skip reason, elsewhere).  ``--stream N`` appends a 64-shard
streaming demonstration: N jobs consumed from a lazy arrival iterator with
in-worker result reduction, recording the parent's peak RSS.

Results are written to ``BENCH_federation.json``.  The report fails (exit 1
in the CLI) on any parity loss (fast-forward or parallel), if fewer than two
routers show a multi-shard rounds/s gain over their own 1-shard cell, or if
the speedup gate is enforced and missed.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import workload
from repro.core.exceptions import ConfigurationError
from repro.federation.engine import FederationResult, UniformShardFactory
from repro.federation.parallel import ParallelFederationEngine, default_worker_count
from repro.federation.router import make_router, router_names
from repro.metrics.parity import schedule_diff
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES
from repro.telemetry.events import run_metadata
from repro.telemetry.runspec import RunSpec
from repro.workloads.philly import PhillyTraceGenerator

#: Shard counts of the matrix.  Every count must divide the node total and
#: leave each shard at least as large as the workload's biggest gang
#: (16 GPUs = 4 nodes), or routing would have no feasible shard.
FULL_TOTAL_NODES = 64
FULL_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)

#: CI smoke: 16 nodes so a 4-way split still fits the largest gang.
SMOKE_TOTAL_NODES = 16
SMOKE_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: The matrix cells are too short (~0.5 s) to measure parallel speedup --
#: process startup would dominate -- so the scaling gate runs one dedicated
#: cell: max shard count, a denser and longer trace on the same cluster.
SCALING_JOBS = 2400
SCALING_JOBS_PER_HOUR = 12.0
SMOKE_SCALING_JOBS = 150
SMOKE_SCALING_JOBS_PER_HOUR = 6.0
SPEEDUP_GATE = 3.0
SPEEDUP_GATE_MIN_CORES = 8

#: Streaming demo shape: 64 shards x 4 nodes x 4 GPUs = 1024 GPUs, arrival
#: rate scaled 4x from the 256-GPU full benchmark to hold the offered load.
STREAM_SHARDS = 64
STREAM_NODES_PER_SHARD = 4
STREAM_JOBS_PER_HOUR = 32.0
STREAM_ROUTER = "queue-delay"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def federation_spec(
    smoke: bool, router: str, num_shards: int, total_nodes: int
) -> RunSpec:
    """The bench workload on ``total_nodes`` split into ``num_shards`` shards."""
    return replace(
        workload.SMOKE if smoke else workload.FULL,
        mode="federation",
        router=router,
        shards=num_shards,
        num_nodes=total_nodes,
    )


def shard_factory(spec: RunSpec) -> UniformShardFactory:
    """The picklable shard recipe of ``spec``: what ``spec.build()`` wires
    in-process, in the form worker processes can rebuild."""
    return UniformShardFactory(
        nodes_per_shard=spec.num_nodes // spec.shards,
        scheduling_factory=SCHEDULING_POLICIES[spec.policy],
        placement_factory=PLACEMENT_POLICIES[spec.placement],
        gpus_per_node=spec.gpus_per_node,
        round_duration=spec.round_duration,
    )


def run_parallel(spec: RunSpec, workers: int, **engine_kwargs) -> FederationResult:
    """Run ``spec`` on the multiprocess engine with ``workers`` processes."""
    trace = spec.trace()
    return ParallelFederationEngine(
        factory=shard_factory(spec),
        num_shards=spec.shards,
        router=make_router(spec.router),
        jobs=trace.fresh_jobs(),
        tracked_job_ids=trace.tracked_ids(),
        workers=workers,
        **engine_kwargs,
    ).run()


@dataclass(frozen=True)
class FederationCell:
    """One picklable cell of the matrix (shipped to sweep workers)."""

    spec: RunSpec
    #: Worker processes for the parallel leg; 0 skips it (1-shard cells).
    workers: int = 0


def _run_serial(spec: RunSpec, fast_forward: bool) -> FederationResult:
    engine = spec.build(fast_forward=fast_forward)
    result = engine.run()
    for shard in engine.shards:
        shard.cluster_state.check_invariants()
    return result


def _execute_cell(cell: FederationCell) -> Tuple[str, Dict[str, object]]:
    """Run one cell (fast-forward + stepping + parallel) into a JSON row."""
    spec = cell.spec
    fastforward = _run_serial(spec, fast_forward=True)
    stepping = _run_serial(spec, fast_forward=False)
    parity = schedule_diff(fastforward, stepping).identical
    ff_rps = (
        fastforward.total_rounds() / fastforward.wall_time_s
        if fastforward.wall_time_s > 0
        else float("inf")
    )
    step_rps = (
        stepping.total_rounds() / stepping.wall_time_s
        if stepping.wall_time_s > 0
        else float("inf")
    )
    summary = fastforward.summary()
    row = {
        "router": spec.router,
        "num_shards": spec.shards,
        "nodes_per_shard": spec.num_nodes // spec.shards,
        "schedule_parity": parity,
        "total_rounds": fastforward.total_rounds(),
        "jobs_per_shard": fastforward.jobs_per_shard(),
        "fastforward_wall_s": round(fastforward.wall_time_s, 4),
        "stepping_wall_s": round(stepping.wall_time_s, 4),
        "fastforward_rounds_per_sec": round(ff_rps, 1),
        "stepping_rounds_per_sec": round(step_rps, 1),
        "speedup_rounds_per_sec": round(ff_rps / step_rps, 2) if step_rps > 0 else None,
        "routing_time_s": round(fastforward.routing_time_s, 4),
        "advance_time_s": round(fastforward.advance_time_s, 4),
        "shard_busy_time_s": [round(t, 4) for t in fastforward.shard_busy_time_s()],
        "makespan_s": round(summary.pooled.makespan, 1),
        "avg_jct_s": round(summary.pooled.avg_jct, 1),
        "p99_jct_s": round(summary.pooled.p99_jct, 1),
        "finished_jobs": summary.pooled.count,
        "routing_imbalance": round(summary.routing_imbalance, 3),
        "capacity_weighted_utilization": round(summary.capacity_weighted_utilization, 4),
    }
    if cell.workers >= 2 and spec.shards >= 2:
        parallel = run_parallel(spec, cell.workers)
        row.update(
            {
                "parallel_parity": schedule_diff(fastforward, parallel).identical,
                "parallel_workers": parallel.workers,
                "parallel_wall_s": round(parallel.wall_time_s, 4),
                "parallel_routing_time_s": round(parallel.routing_time_s, 4),
                "parallel_advance_time_s": round(parallel.advance_time_s, 4),
                "parallel_speedup_vs_serial": round(
                    fastforward.wall_time_s / parallel.wall_time_s, 2
                )
                if parallel.wall_time_s > 0
                else None,
            }
        )
    return f"{spec.router}/shards{spec.shards}", row


# ----------------------------------------------------------------------
# Dedicated scaling cell: the >= 3x wall-clock gate
# ----------------------------------------------------------------------


def run_scaling_cell(
    smoke: bool = False,
    total_nodes: Optional[int] = None,
    num_shards: Optional[int] = None,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Serial vs parallel wall clock at max shards on the long trace.

    Returns the JSON section with the measured speedup and whether the
    >= 3x gate is enforced on this machine (needs >= 8 usable cores and
    8 shards / 8 workers; otherwise the measurement is recorded and the gate
    skipped with a reason -- a 1-core container cannot physically speed up).
    """
    if total_nodes is None:
        total_nodes = SMOKE_TOTAL_NODES if smoke else FULL_TOTAL_NODES
    if num_shards is None:
        num_shards = (SMOKE_SHARD_COUNTS if smoke else FULL_SHARD_COUNTS)[-1]
    if workers is None:
        workers = num_shards
    spec = replace(
        federation_spec(smoke, "queue-delay", num_shards, total_nodes),
        num_jobs=SMOKE_SCALING_JOBS if smoke else SCALING_JOBS,
        jobs_per_hour=SMOKE_SCALING_JOBS_PER_HOUR if smoke else SCALING_JOBS_PER_HOUR,
    )
    serial = spec.build().run()
    parallel = run_parallel(spec, workers)
    parity = schedule_diff(serial, parallel).identical
    speedup = (
        serial.wall_time_s / parallel.wall_time_s if parallel.wall_time_s > 0 else 0.0
    )
    cores = _usable_cores()
    enforced = (
        not smoke
        and cores >= SPEEDUP_GATE_MIN_CORES
        and num_shards >= SPEEDUP_GATE_MIN_CORES
        and parallel.workers >= SPEEDUP_GATE_MIN_CORES
    )
    if enforced:
        reason = None
    elif smoke:
        reason = "smoke run"
    elif cores < SPEEDUP_GATE_MIN_CORES:
        reason = f"usable cores {cores} < {SPEEDUP_GATE_MIN_CORES}"
    else:
        reason = (
            f"shards/workers {num_shards}/{parallel.workers} < "
            f"{SPEEDUP_GATE_MIN_CORES}"
        )
    return {
        "router": spec.router,
        "num_shards": num_shards,
        "workers": parallel.workers,
        "num_jobs": spec.num_jobs,
        "usable_cores": cores,
        "parallel_parity": parity,
        "serial_wall_s": round(serial.wall_time_s, 4),
        "parallel_wall_s": round(parallel.wall_time_s, 4),
        "serial_routing_time_s": round(serial.routing_time_s, 4),
        "serial_advance_time_s": round(serial.advance_time_s, 4),
        "parallel_routing_time_s": round(parallel.routing_time_s, 4),
        "parallel_advance_time_s": round(parallel.advance_time_s, 4),
        "shard_busy_time_s": [round(t, 4) for t in serial.shard_busy_time_s()],
        "measured_speedup": round(speedup, 2),
        "speedup_gate": SPEEDUP_GATE,
        "gate_enforced": enforced,
        "gate_skip_reason": reason,
        "speedup_ok": (speedup >= SPEEDUP_GATE) if enforced else True,
    }


# ----------------------------------------------------------------------
# Streaming demonstration: 64 shards, lazy arrivals, bounded parent memory
# ----------------------------------------------------------------------


def run_stream_demo(
    num_jobs: int,
    workers: Optional[int] = None,
    num_shards: int = STREAM_SHARDS,
) -> Dict[str, object]:
    """Feed ``num_jobs`` lazily through a ``num_shards``-shard parallel run.

    The arrival stream is a generator (``PhillyTraceGenerator.iter_jobs``),
    assignment tracking is off, and workers reduce their shard results to
    statistics before replying -- the parent never holds the trace or a shard
    result, which ``peak_rss_mib`` in the returned section substantiates.
    """
    if num_jobs < 1:
        raise ConfigurationError(f"--stream needs >= 1 jobs, got {num_jobs}")
    if workers is None:
        workers = max(2, min(default_worker_count(num_shards), 8))
    spec = federation_spec(
        False, STREAM_ROUTER, num_shards, num_shards * STREAM_NODES_PER_SHARD
    )
    generator = PhillyTraceGenerator(
        num_jobs=num_jobs, jobs_per_hour=STREAM_JOBS_PER_HOUR, seed=spec.seed
    )
    engine = ParallelFederationEngine(
        factory=shard_factory(spec),
        num_shards=num_shards,
        router=make_router(STREAM_ROUTER),
        jobs=generator.iter_jobs(),
        workers=workers,
    )
    result = engine.run_stream()
    section = result.as_dict()
    section["jobs_per_hour"] = STREAM_JOBS_PER_HOUR
    section["nodes_per_shard"] = STREAM_NODES_PER_SHARD
    section["all_jobs_finished"] = result.finished_jobs() == num_jobs
    return section


# ----------------------------------------------------------------------
# The matrix driver
# ----------------------------------------------------------------------


def run_federation_bench(
    smoke: bool = False,
    out_path: Optional[str] = "BENCH_federation.json",
    processes: Optional[int] = None,
    shard_counts: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    routers: Optional[Sequence[str]] = None,
    stream_jobs: Optional[int] = None,
    started_at: Optional[float] = None,
) -> Dict[str, object]:
    """Run the router x shard-count matrix; returns the JSON report payload.

    ``shard_counts``, ``workers`` and ``routers`` override the hard-coded
    matrix so the scaling cells are reproducible at other machine sizes;
    ``stream_jobs`` appends the 64-shard streaming demonstration.
    ``started_at`` is the caller's wall-clock stamp for the report metadata.
    """
    total_nodes = SMOKE_TOTAL_NODES if smoke else FULL_TOTAL_NODES
    base = workload.SMOKE if smoke else workload.FULL
    if shard_counts is None:
        shard_counts = SMOKE_SHARD_COUNTS if smoke else FULL_SHARD_COUNTS
    shard_counts = tuple(shard_counts)
    biggest_gang_nodes = 16 // base.gpus_per_node
    for count in shard_counts:
        if count < 1 or total_nodes % count != 0:
            raise ConfigurationError(
                f"shard count {count} does not divide {total_nodes} nodes"
            )
        if total_nodes // count < biggest_gang_nodes:
            raise ConfigurationError(
                f"shard count {count} leaves {total_nodes // count} nodes per "
                f"shard, below the workload's largest gang "
                f"({biggest_gang_nodes} nodes)"
            )
    if routers is None:
        routers = router_names()
    else:
        routers = list(routers)
        for name in routers:
            make_router(name)  # validate early, before minutes of cells
    # Parallel legs always run with >= 2 workers even on small machines:
    # parity is core-count-independent, only the speedup is not (that is the
    # scaling cell's job).
    cell_workers = (
        max(2, workers)
        if workers is not None
        else max(2, min(default_worker_count(max(shard_counts)), 8))
    )
    cells = [
        FederationCell(
            spec=federation_spec(smoke, router, count, total_nodes),
            workers=min(cell_workers, count) if count >= 2 else 0,
        )
        for router in routers
        for count in shard_counts
    ]

    # Cells are timed and *compared* (the multi-shard gain gate), so the
    # default is serial execution: concurrent cells contend for cores and
    # make cross-cell rounds/s comparisons -- and therefore the gate --
    # machine-load-dependent.  Parallelism is an explicit opt-in for quick
    # parity-only runs.
    if processes is None:
        processes = 1
    if processes > 1:
        try:
            for cell in cells:
                pickle.dumps(cell)
        except Exception as exc:  # pragma: no cover - cells are plain data
            warnings.warn(
                f"federation cells could not be shipped to workers ({exc!r}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            rows = [_execute_cell(cell) for cell in cells]
        else:
            with ProcessPoolExecutor(max_workers=processes) as executor:
                rows = list(executor.map(_execute_cell, cells))
    else:
        rows = [_execute_cell(cell) for cell in cells]

    cell_rows = dict(rows)
    all_parity = all(row["schedule_parity"] for row in cell_rows.values())
    parallel_rows = [row for row in cell_rows.values() if "parallel_parity" in row]
    all_parallel_parity = all(row["parallel_parity"] for row in parallel_rows)

    # A router "shows a multi-shard gain" when its best multi-shard cell
    # beats its own 1-shard cell on fast-forward rounds/s.
    gain_routers: List[str] = []
    for router in routers:
        single_key = f"{router}/shards{shard_counts[0]}"
        if single_key not in cell_rows:
            continue
        single = cell_rows[single_key]
        multi = [
            cell_rows[f"{router}/shards{count}"]
            for count in shard_counts
            if count > shard_counts[0]
        ]
        if not multi:
            continue
        best = max(row["fastforward_rounds_per_sec"] for row in multi)
        if best > single["fastforward_rounds_per_sec"]:
            gain_routers.append(router)
    gain_possible = len(shard_counts) > 1 and shard_counts[0] == 1

    scaling = run_scaling_cell(smoke=smoke, total_nodes=total_nodes)

    scale = "smoke" if smoke else "full"
    total_gpus = total_nodes * base.gpus_per_node
    report: Dict[str, object] = {
        "benchmark": f"federation-{scale}-{total_gpus}gpu-philly-fifo-consolidated",
        "config": {
            "scale": scale,
            "seed": base.seed,
            "total_nodes": total_nodes,
            "gpus_per_node": base.gpus_per_node,
            "total_gpus": total_gpus,
            "num_jobs": base.num_jobs,
            "jobs_per_hour": base.jobs_per_hour,
            "round_duration_s": base.round_duration,
            "shard_counts": list(shard_counts),
            "routers": list(routers),
            "parallel_workers": cell_workers,
            "usable_cores": _usable_cores(),
            "scheduling": base.policy,
            "placement": base.placement,
            "python": platform.python_version(),
        },
        "matrix": sorted(cell_rows),
        "all_schedule_parity": all_parity,
        "all_parallel_parity": all_parallel_parity,
        "parallel_cells": len(parallel_rows),
        "multi_shard_gain_routers": gain_routers,
        "multi_shard_gain_ok": (len(gain_routers) >= 2) if gain_possible else True,
        "scaling": scaling,
        "cells": cell_rows,
    }
    report["metadata"] = run_metadata(base.seed, report["config"], started_at)
    if stream_jobs is not None:
        report["stream_demo"] = run_stream_demo(stream_jobs)

    if out_path:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return report
