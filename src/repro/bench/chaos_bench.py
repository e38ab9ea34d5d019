"""The chaos bench: control-plane faults whose recovery must not show.

``python -m repro.bench --chaos`` gates the property that makes the
robustness subsystem (``docs/robustness.md``) trustworthy: fault recovery is
invisible in the schedule.

* **Federation cell** -- the 2-shard federation, serial first, then one
  ``killed(when, at)`` leg per kill point on the supervised worker
  pool: a :class:`~repro.federation.parallel.WorkerKillPlan` SIGKILLs a
  worker before the broadcast or between broadcast and collect, the
  supervisor respawns it and replays from the last checkpoint.  This module's
  own is the degradation run: restarts exhausted
  (``on_unrecoverable="degrade"``), every job finished on a surviving shard
  or counted in ``lost_jobs``.
* **Runtime cell** -- the ``chaos`` scenario through the deployment path,
  fault-free first, then one ``faulted(seed)`` leg per seed with a
  :class:`~repro.runtime.rpc.FaultPlan` dropping, delaying, duplicating and
  losing replies on every lease RPC: same schedule, zero leaked leases, and
  nonzero retry/recovery counters (proof the faults fired).

Each half is the ``chaos`` section of the artifact it extends.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from functools import partial
from typing import Dict, Optional, Tuple

from repro.bench import cells, workload
from repro.bench.cells import Cell, Gate, Leg, LegRun, built, timed
from repro.bench.runtime_bench import deployment_facts, runtime_spec
from repro.federation.parallel import SupervisorConfig, WorkerKillPlan
from repro.runtime.rpc import FaultPlan, FaultSpec, RetryPolicy
from repro.telemetry.runspec import RunSpec

#: The federation chaos shape: 2 shards (the ``RunSpec`` default) x 2 workers,
#: one shard per worker, queue-delay routing.
CHAOS_WORKERS = 2
CHAOS_ROUTER = "queue-delay"

#: Advance indices at which the kill plan SIGKILLs worker 0.  Chosen to land
#: both before the first checkpoint (pure replay-from-genesis) and well past
#: one (replay from a mid-run checkpoint).
KILL_POINTS_SMOKE: Tuple[int, ...] = (1, 5)
KILL_POINTS_FULL: Tuple[int, ...] = (3, 17)

#: RPC fault seeds of the runtime cell (the property-test seeds 0-4; smoke
#: trims to keep CI in seconds).
FAULT_SEEDS_SMOKE: Tuple[int, ...] = (0, 1, 2)
FAULT_SEEDS_FULL: Tuple[int, ...] = (0, 1, 2, 3, 4)

#: Per-call fault probabilities of the runtime cell.  With ~5% drop and ~5%
#: lost-reply per delivery and 8 attempts, the chance any call in a run
#: exhausts its retries is negligible (~1e-8 per call) -- exhaustion would
#: abort the run, which is itself a gate failure.
FAULT_SPEC = FaultSpec(
    drop_rate=0.05, lose_reply_rate=0.05, duplicate_rate=0.05, delay_rate=0.05
)
RETRY_POLICY = RetryPolicy(max_attempts=8)


def _supervisor(smoke: bool, **overrides) -> SupervisorConfig:
    return SupervisorConfig(
        checkpoint_interval=4 if smoke else 8, backoff_base_s=0.01, backoff_max_s=0.1, **overrides
    )


def _recovery_facts(engine, result) -> Dict[str, object]:
    return {"fault_stats": result.fault_stats.as_dict()}


def killed(when: str, at: int, smoke: bool) -> Leg:
    """The supervised parallel run with worker 0 SIGKILLed at advance ``at``."""
    return built(
        f"killed({when}, {at})",
        facts=_recovery_facts,
        workers=CHAOS_WORKERS,
        supervisor=_supervisor(smoke),
        kill_plan=WorkerKillPlan(kills=((at, 0),), when=when),
    )


def run_federation_chaos(smoke: bool = False, started_at: Optional[float] = None) -> Dict:
    """The kill-one-worker cell plus the degradation run, as a section."""
    spec = replace(
        workload.SMOKE if smoke else workload.FULL, mode="federation", router=CHAOS_ROUTER
    )
    kill_points = KILL_POINTS_SMOKE if smoke else KILL_POINTS_FULL
    cell = Cell(
        "kill-one-worker",
        spec,
        (
            cells.DEFAULT,
            *(killed(when, at, smoke) for when in ("before", "after") for at in kill_points),
        ),
    )
    rows = {cell.name: cells.run_cell(cell)}
    unrecovered = [
        name
        for name, facts in rows[cell.name]["legs"].items()
        if "fault_stats" in facts and facts["fault_stats"]["worker_restarts"] < 1
    ]

    # Degradation: restarts exhausted immediately, the dead shard's
    # queued-but-unrouted jobs re-route to the survivor.
    degrade_at = kill_points[-1]
    degraded = spec.build(
        workers=CHAOS_WORKERS,
        supervisor=_supervisor(smoke, max_restarts=0, on_unrecoverable="degrade"),
        kill_plan=WorkerKillPlan(kills=((degrade_at, 1),), when="before"),
    ).run()
    stats = degraded.fault_stats
    finished = sum(len(shard.jobs) for shard in degraded.shard_results)
    degrade = {
        "kill_at_advance": degrade_at,
        "fault_stats": stats.as_dict(),
        "finished_jobs": finished,
        "total_jobs": spec.num_jobs,
        "jobs_per_shard": degraded.jobs_per_shard(),
    }
    gates = [
        cells.parity_gate("kill parity", rows),
        Gate(
            "kills recovered",
            not unrecovered,
            reason=f"legs without a worker restart: {unrecovered}",
        ),
        Gate(
            "degrade conservation",
            finished + stats.lost_jobs == spec.num_jobs and stats.dead_shards >= 1,
            reason=f"{finished} finished + {stats.lost_jobs} lost of {spec.num_jobs} jobs, "
            f"{stats.dead_shards} dead shard(s)",
        ),
    ]
    config = {
        "smoke": smoke,
        "workers": CHAOS_WORKERS,
        "kill_points": list(kill_points),
        "supervisor": asdict(_supervisor(smoke)),
    }
    return cells.artifact(
        "federation-chaos", spec.seed, config, gates, rows, started_at, degrade=degrade
    )


def _faulted_facts(scheduler, result) -> Dict[str, object]:
    stats = scheduler.fault_stats()
    return {
        **deployment_facts(scheduler, result),
        "fault_stats": stats.as_dict(),
        "any_recovery": stats.any_recovery(),
    }


def _run_faulted(spec: RunSpec, seed: int) -> LegRun:
    # A plan owns its RNG and counters, so each run draws a fresh one.
    return timed(
        spec.build(fault_plan=FaultPlan(FAULT_SPEC, seed=seed), retry_policy=RETRY_POLICY),
        _faulted_facts,
    )


def faulted(seed: int) -> Leg:
    """The deployment run with every lease RPC under fault plan ``seed``."""
    return Leg(f"faulted({seed})", partial(_run_faulted, seed=seed))


def run_runtime_chaos(smoke: bool = False, started_at: Optional[float] = None) -> Dict:
    """The ``chaos`` scenario under per-seed RPC fault plans, as a section."""
    spec = runtime_spec("chaos", smoke)
    seeds = FAULT_SEEDS_SMOKE if smoke else FAULT_SEEDS_FULL
    cell = Cell(
        "rpc-faults",
        spec,
        (built("default", facts=deployment_facts), *(faulted(seed) for seed in seeds)),
    )
    rows = {cell.name: cells.run_cell(cell)}
    legs = rows[cell.name]["legs"]
    leaking = [name for name, facts in legs.items() if facts["leaked_leases"]]
    quiet = [name for name, facts in legs.items() if facts.get("any_recovery") is False]
    gates = [
        cells.parity_gate("faulted parity", rows),
        Gate("zero leaked leases", not leaking, reason=f"legs leaking leases: {leaking}"),
        Gate(
            "recovery counters non-zero",
            not quiet,
            reason=f"faulted legs that never retried or deduplicated: {quiet}",
        ),
    ]
    config = {
        "smoke": smoke,
        "fault_seeds": list(seeds),
        "fault_spec": asdict(FAULT_SPEC),
        "retry_policy": asdict(RETRY_POLICY),
    }
    return cells.artifact("runtime-chaos", spec.seed, config, gates, rows, started_at)


def run_chaos_bench(smoke: bool = False, started_at: Optional[float] = None) -> Dict[str, Dict]:
    """Run both halves; returns ``{artifact path: {"sections": {"chaos": ...}}}``."""
    return {
        "BENCH_federation.json": {"sections": {"chaos": run_federation_chaos(smoke, started_at)}},
        "BENCH_runtime.json": {"sections": {"chaos": run_runtime_chaos(smoke, started_at)}},
    }
