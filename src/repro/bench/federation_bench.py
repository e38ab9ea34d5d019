"""The federation bench: router x shard-count matrix, parity-checked.

Every stock :mod:`repro.federation.router` at several shard counts on the
seeded Philly workload, total GPU capacity held constant (64 nodes split
into 1, 2, 4 or 8 equal shards), so the matrix isolates what sharding buys
(smaller per-round state) and costs (global placement freedom).  A cell is a
federation-mode ``RunSpec`` with legs ``default``, ``stepping`` and -- on
multi-shard cells -- ``parallel`` (``build(workers=N)``); all must agree on
per-shard completion times, round logs, round counts *and routing
assignments*, and every serial shard must pass ``check_invariants()``.

This module's own: the multi-shard gain (two routers must beat their own
1-shard cell on rounds/s), the *scaling cell* (max shards, a longer trace,
serial vs parallel wall clock; its >= 3x gate binds only with >= 8 usable
cores and records the reason otherwise) and ``--stream N``, the 64-shard
streaming demonstration with bounded parent memory.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import cells, workload
from repro.bench.cells import Cell, Gate, built
from repro.core.exceptions import ConfigurationError
from repro.federation.parallel import default_worker_count, usable_cores
from repro.federation.router import make_router, router_names
from repro.workloads.philly import PhillyTraceGenerator

#: The matrix workload: the bench presets as federations.  Every shard count
#: must divide the node total and leave each shard at least as large as the
#: workload's biggest gang (16 GPUs = 4 nodes), or routing would have no
#: feasible shard -- hence 16 smoke nodes, so a 4-way split still fits it.
FULL = replace(workload.FULL, mode="federation")
FULL_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)
SMOKE = replace(workload.SMOKE, mode="federation", num_nodes=16)
SMOKE_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: The matrix cells are too short (~0.5 s) to measure parallel speedup --
#: process startup would dominate -- so the scaling gate runs one dedicated
#: cell: max shard count, a denser and longer trace on the same cluster.
SCALING = replace(FULL, router="queue-delay", shards=8, num_jobs=2400, jobs_per_hour=12.0)
SMOKE_SCALING = replace(SMOKE, router="queue-delay", shards=4, num_jobs=150, jobs_per_hour=6.0)
SPEEDUP_GATE = 3.0
SPEEDUP_GATE_MIN_CORES = 8

#: Streaming demo shape: 64 shards x 4 nodes x 4 GPUs = 1024 GPUs, arrival
#: rate scaled 4x from the 256-GPU full benchmark to hold the offered load.
STREAM = replace(FULL, router="queue-delay", shards=64, num_nodes=256, jobs_per_hour=32.0)


def shard_invariants(engine, result) -> Dict[str, object]:
    """Facts of a serial federation leg: every shard's recomputed indexes."""
    violations = []
    for shard in engine.backend.shards:
        try:
            shard.cluster_state.check_invariants()
        except AssertionError as exc:
            violations.append(f"shard {shard.shard_id}: {exc}")
    return {"invariant_violations": violations}


DEFAULT = built("default", facts=shard_invariants)
STEPPING = built("stepping", facts=shard_invariants, fast_forward=False)


def federation_cells(
    smoke: bool, routers: Sequence[str], shard_counts: Sequence[int], workers: int
) -> List[Cell]:
    return [
        Cell(
            f"{router}/shards{count}",
            replace(SMOKE if smoke else FULL, router=router, shards=count),
            (DEFAULT, STEPPING, cells.parallel(min(workers, count)))
            if count >= 2
            else (DEFAULT, STEPPING),
        )
        for router in routers
        for count in shard_counts
    ]


def _matrix_row(cell: Cell) -> Dict[str, object]:
    runs = cells.run_legs(cell)
    result = runs[0].result
    summary = result.summary()
    return {
        **cells.run_cell(cell, runs),
        "jobs_per_shard": result.jobs_per_shard(),
        "routing_time_s": round(result.routing_time_s, 4),
        "advance_time_s": round(result.advance_time_s, 4),
        "shard_busy_time_s": [round(t, 4) for t in result.shard_busy_time_s()],
        "makespan_s": round(summary.pooled.makespan, 1),
        "p99_jct_s": round(summary.pooled.p99_jct, 1),
        "routing_imbalance": round(summary.routing_imbalance, 3),
        "capacity_weighted_utilization": round(summary.capacity_weighted_utilization, 4),
    }


def invariants_gate(rows: Dict[str, Dict]) -> Gate:
    violations = [
        f"{name} [{leg}] {violation}"
        for name, row in rows.items()
        for leg, facts in row["legs"].items()
        for violation in facts.get("invariant_violations", ())
    ]
    return Gate(
        "shard invariants",
        not violations,
        reason=violations[0] if violations else "check_invariants() clean on every serial shard",
    )


def gain_gate(rows: Dict[str, Dict], routers: Sequence[str], shard_counts: Sequence[int]) -> Gate:
    """A router "shows a multi-shard gain" when its best multi-shard cell
    beats its own 1-shard cell on default-leg rounds/s; two routers must."""

    def rps(router: str, count: int) -> float:
        return rows[f"{router}/shards{count}"]["legs"]["default"]["rounds_per_sec"]

    if shard_counts[0] != 1 or len(shard_counts) < 2:
        return Gate("multi-shard gain", True, enforced=False, reason="no 1-shard cell to compare to")
    gaining = [
        router
        for router in routers
        if max(rps(router, count) for count in shard_counts[1:]) > rps(router, 1)
    ]
    return Gate("multi-shard gain", len(gaining) >= 2, reason=f"routers gaining: {gaining}")


def speedup_gate(row: Dict[str, object], smoke: bool) -> Gate:
    """The >= 3x gate (8 shards, one worker each, on the full configuration)
    binds with >= 8 usable cores; otherwise the measurement is recorded with
    the reason it does not (a 1-core container cannot physically speed up)."""
    serial, parallel = row["legs"]["default"], row["legs"]["parallel"]
    speedup = serial["wall_s"] / parallel["wall_s"] if parallel["wall_s"] > 0 else 0.0
    cores = usable_cores()
    measured = f"{speedup:.2f}x against the >= {SPEEDUP_GATE}x gate"
    if smoke:
        skip = "smoke run"
    elif cores < SPEEDUP_GATE_MIN_CORES:
        skip = f"usable cores {cores} < {SPEEDUP_GATE_MIN_CORES}"
    else:
        return Gate("scaling speedup", speedup >= SPEEDUP_GATE, reason=measured)
    return Gate(
        "scaling speedup", speedup >= SPEEDUP_GATE, enforced=False, reason=f"{measured}; {skip}"
    )


def run_stream_demo(num_jobs: int, started_at: Optional[float] = None) -> Dict[str, object]:
    """Feed ``num_jobs`` lazily through the ``STREAM`` federation's workers.

    The arrival stream is a generator (``PhillyTraceGenerator.iter_jobs``),
    assignment tracking is off, and workers reduce their shard results to
    statistics before replying -- the parent never holds the trace or a shard
    result, which ``peak_rss_mib`` in the returned section substantiates.
    """
    if num_jobs < 1:
        raise ConfigurationError(f"--stream needs >= 1 jobs, got {num_jobs}")
    workers = max(2, min(default_worker_count(STREAM.shards), 8))
    spec = replace(STREAM, num_jobs=num_jobs)
    generator = PhillyTraceGenerator(
        num_jobs=spec.num_jobs, jobs_per_hour=spec.jobs_per_hour, seed=spec.seed
    )
    result = spec.build(workers=workers, jobs=generator.iter_jobs()).run_stream()
    finished = result.finished_jobs()
    gate = Gate(
        "stream demo all jobs finished",
        finished == num_jobs,
        reason=f"{finished} of {num_jobs} jobs finished",
    )
    config = {"spec": spec.as_dict(), "workers": workers}
    return cells.artifact(
        "federation-stream-demo", spec.seed, config, [gate], {}, started_at, result=result.as_dict()
    )


def run_federation_bench(
    smoke: bool = False,
    shard_counts: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    routers: Optional[Sequence[str]] = None,
    stream_jobs: Optional[int] = None,
    started_at: Optional[float] = None,
) -> Dict[str, Dict]:
    """Run the router x shard-count matrix; returns ``{path: artifact}``.

    ``shard_counts``, ``workers`` and ``routers`` override the built-in
    matrix so the scaling cells are reproducible at other machine sizes;
    ``stream_jobs`` appends the 64-shard streaming demonstration.  Cells run
    serially, one after another: they are timed and *compared* (the
    multi-shard gain gate), and concurrent cells would contend for cores.
    """
    base = SMOKE if smoke else FULL
    total_nodes = base.num_nodes
    if shard_counts is None:
        shard_counts = SMOKE_SHARD_COUNTS if smoke else FULL_SHARD_COUNTS
    shard_counts = tuple(shard_counts)
    biggest_gang_nodes = 16 // base.gpus_per_node
    for count in shard_counts:  # RunSpec rejects counts that do not divide the nodes
        if count >= 1 and total_nodes // count < biggest_gang_nodes:
            raise ConfigurationError(
                f"shard count {count} leaves {total_nodes // count} nodes per "
                f"shard, below the workload's largest gang "
                f"({biggest_gang_nodes} nodes)"
            )
    routers = list(routers) if routers is not None else router_names()
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
    rows = {
        cell.name: _matrix_row(cell)
        for cell in federation_cells(smoke, routers, shard_counts, cell_workers)
    }
    scaling_spec = SMOKE_SCALING if smoke else SCALING
    scaling = Cell(
        f"scaling/shards{scaling_spec.shards}",
        scaling_spec,
        (DEFAULT, cells.parallel(scaling_spec.shards)),
    )
    scaling_rows = {scaling.name: _matrix_row(scaling)}
    gates = [
        cells.parity_gate("federation fast-forward parity", rows, "stepping"),
        cells.parity_gate("serial/parallel parity", rows, "parallel")
        if any(count >= 2 for count in shard_counts)
        else Gate("serial/parallel parity", True, enforced=False, reason="no multi-shard cell"),
        invariants_gate({**rows, **scaling_rows}),
        gain_gate(rows, routers, shard_counts),
        cells.parity_gate("scaling parity", scaling_rows, "parallel"),
        speedup_gate(scaling_rows[scaling.name], smoke),
    ]
    config = {
        "scale": "smoke" if smoke else "full",
        "shard_counts": list(shard_counts),
        "routers": routers,
        "parallel_workers": cell_workers,
    }
    sections = {}
    if stream_jobs is not None:
        sections["stream_demo"] = run_stream_demo(stream_jobs, started_at)
    return {
        "BENCH_federation.json": cells.artifact(
            "federation",
            base.seed,
            config,
            gates,
            {**rows, **scaling_rows},
            started_at,
            **sections,
        )
    }
