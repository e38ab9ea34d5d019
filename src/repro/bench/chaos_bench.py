"""The chaos benchmark: control-plane faults with recovery, parity-gated.

``python -m repro.bench --chaos`` exercises both halves of the robustness
subsystem (see ``docs/robustness.md``) and *gates* on the property that makes
it trustworthy: fault recovery is invisible in the schedule.

* **Federation leg** -- the 2-shard parallel federation run with a
  :class:`~repro.federation.parallel.SupervisorConfig` armed; a
  :class:`~repro.federation.parallel.WorkerKillPlan` SIGKILLs one worker
  mid-``advance`` (both before the broadcast and between broadcast and
  collect), the supervisor respawns it and replays from the last checkpoint,
  and the result must be **bit-identical** to the fault-free serial run.
  A degradation cell kills a worker with restarts exhausted
  (``on_unrecoverable="degrade"``) and checks job conservation: every job is
  either finished on a surviving shard or counted in ``lost_jobs``.
* **Runtime leg** -- the ``chaos`` scenario (node failures + spot waves)
  through the :class:`~repro.runtime.central_scheduler.CentralScheduler`
  with a seeded :class:`~repro.runtime.rpc.FaultPlan` dropping, delaying,
  duplicating and losing replies on every lease RPC.  With retries and
  idempotency tokens on, each seed must reproduce the fault-free schedule
  exactly, leak zero leases, and record nonzero retry/recovery counters
  (proof the faults actually fired).

Results are *merged* into the existing ``BENCH_federation.json`` and
``BENCH_runtime.json`` under a ``"chaos"`` key (read-modify-write), so the
chaos sections live next to the benchmarks they extend.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.bench import workload
from repro.bench.federation_bench import run_parallel
from repro.federation.parallel import SupervisorConfig, WorkerKillPlan
from repro.metrics.parity import schedule_diff
from repro.policies.scheduling.tiresias import TiresiasScheduling
from repro.runtime.central_scheduler import CentralScheduler
from repro.runtime.rpc import FaultPlan, FaultSpec, RetryPolicy
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import SCENARIO_SEED
from repro.simulator.overheads import OverheadModel

#: The federation chaos shape: 2 shards x 2 workers (one shard per worker),
#: queue-delay routing -- the CI shape named in the issue.
CHAOS_SHARDS = 2
CHAOS_WORKERS = 2
CHAOS_ROUTER = "queue-delay"

#: Advance indices at which the kill plan SIGKILLs worker 0.  Chosen to land
#: both before the first checkpoint (pure replay-from-genesis) and well past
#: one (replay from a mid-run checkpoint).
KILL_POINTS_SMOKE: Tuple[int, ...] = (1, 5)
KILL_POINTS_FULL: Tuple[int, ...] = (3, 17)

#: RPC fault seeds of the runtime leg (the property-test seeds 0-4; smoke
#: trims to keep CI in seconds).
FAULT_SEEDS_SMOKE: Tuple[int, ...] = (0, 1, 2)
FAULT_SEEDS_FULL: Tuple[int, ...] = (0, 1, 2, 3, 4)

#: Per-call fault probabilities of the runtime leg.  With ~5% drop and ~5%
#: lost-reply per delivery and 8 attempts, the chance any call in a run
#: exhausts its retries is negligible (~1e-8 per call) -- exhaustion would
#: abort the run, which is itself a gate failure.
FAULT_SPEC = FaultSpec(
    drop_rate=0.05, lose_reply_rate=0.05, duplicate_rate=0.05, delay_rate=0.05
)
RETRY_POLICY = RetryPolicy(max_attempts=8)


# ----------------------------------------------------------------------
# Federation leg: kill-one-worker recovery parity + degradation
# ----------------------------------------------------------------------


def _supervisor(smoke: bool, **overrides) -> SupervisorConfig:
    base = dict(
        checkpoint_interval=4 if smoke else 8,
        backoff_base_s=0.01,
        backoff_max_s=0.1,
    )
    base.update(overrides)
    return SupervisorConfig(**base)


def run_federation_chaos(smoke: bool = False) -> Dict[str, object]:
    """Kill-one-worker parity cells plus the degradation cell."""
    spec = replace(
        workload.SMOKE if smoke else workload.FULL,
        mode="federation",
        router=CHAOS_ROUTER,
        shards=CHAOS_SHARDS,
    )
    total_nodes, num_jobs = spec.num_nodes, spec.num_jobs
    kill_points = KILL_POINTS_SMOKE if smoke else KILL_POINTS_FULL
    reference = spec.build().run()

    cells: Dict[str, object] = {}
    all_parity = True
    all_recovered = True
    for when in ("before", "after"):
        for kill_at in kill_points:
            result = run_parallel(
                spec,
                CHAOS_WORKERS,
                supervisor=_supervisor(smoke),
                kill_plan=WorkerKillPlan(kills=((kill_at, 0),), when=when),
            )
            stats = result.fault_stats
            parity = schedule_diff(reference, result).identical
            all_parity = all_parity and parity
            all_recovered = all_recovered and stats.worker_restarts >= 1
            cells[f"kill-{when}/advance{kill_at}"] = {
                "kill_when": when,
                "kill_at_advance": kill_at,
                "schedule_parity": parity,
                "worker_restarts": stats.worker_restarts,
                "checkpoints": stats.checkpoints,
                "replayed_commands": stats.replayed_commands,
                "wall_time_s": round(result.wall_time_s, 4),
            }

    # Degradation: restarts exhausted immediately, the dead shard's
    # queued-but-unrouted jobs re-route to the survivor.
    degrade_at = kill_points[-1]
    degraded = run_parallel(
        spec,
        CHAOS_WORKERS,
        supervisor=_supervisor(smoke, max_restarts=0, on_unrecoverable="degrade"),
        kill_plan=WorkerKillPlan(kills=((degrade_at, 1),), when="before"),
    )
    dstats = degraded.fault_stats
    finished = sum(len(shard.jobs) for shard in degraded.shard_results)
    conserved = finished + dstats.lost_jobs == num_jobs
    degrade_cell = {
        "kill_at_advance": degrade_at,
        "dead_shards": dstats.dead_shards,
        "rerouted_jobs": dstats.rerouted_jobs,
        "lost_jobs": dstats.lost_jobs,
        "finished_jobs": finished,
        "total_jobs": num_jobs,
        "jobs_conserved": conserved,
        "jobs_per_shard": degraded.jobs_per_shard(),
    }

    return {
        "shape": {
            "num_shards": CHAOS_SHARDS,
            "workers": CHAOS_WORKERS,
            "router": CHAOS_ROUTER,
            "total_nodes": total_nodes,
            "num_jobs": num_jobs,
            "checkpoint_interval": 4 if smoke else 8,
        },
        "cells": cells,
        "degrade": degrade_cell,
        "all_kill_parity": all_parity,
        "all_kills_recovered": all_recovered,
        "degrade_ok": conserved and dstats.dead_shards >= 1,
        "ok": all_parity and all_recovered and conserved and dstats.dead_shards >= 1,
    }


# ----------------------------------------------------------------------
# Runtime leg: lease protocol under seeded RPC faults
# ----------------------------------------------------------------------


def _deployment_run(compiled, fault_seed: Optional[int]):
    """Run the compiled scenario; returns ``(scheduler, result)``."""
    scheduler = CentralScheduler(
        cluster_state=compiled.build_cluster(),
        jobs=compiled.trace.fresh_jobs(),
        scheduling_policy=TiresiasScheduling(),
        round_duration=compiled.spec.round_duration,
        lease_protocol="optimistic",
        overhead_model=OverheadModel(),
        cluster_manager=compiled.make_cluster_manager(),
        tracked_job_ids=compiled.trace.tracked_ids(),
        fault_plan=None if fault_seed is None else FaultPlan(FAULT_SPEC, seed=fault_seed),
        retry_policy=None if fault_seed is None else RETRY_POLICY,
    )
    return scheduler, scheduler.run()


def run_runtime_chaos(smoke: bool = False, seed: int = SCENARIO_SEED) -> Dict[str, object]:
    """The ``chaos`` scenario under per-seed RPC fault plans, parity-gated."""
    compiled = get_scenario("chaos", smoke=smoke).compile(seed)
    fault_seeds = FAULT_SEEDS_SMOKE if smoke else FAULT_SEEDS_FULL
    ref_scheduler, ref_result = _deployment_run(compiled, fault_seed=None)

    cells: Dict[str, object] = {}
    all_parity = True
    all_zero_leak = True
    all_recovered = True
    for fault_seed in fault_seeds:
        faulty, faulty_result = _deployment_run(compiled, fault_seed=fault_seed)
        stats = faulty.fault_stats()
        leaked = faulty.leaked_leases()
        parity = schedule_diff(ref_result, faulty_result).identical
        all_parity = all_parity and parity
        all_zero_leak = all_zero_leak and leaked == 0
        all_recovered = all_recovered and stats.any_recovery()
        cells[f"seed{fault_seed}"] = {
            "fault_seed": fault_seed,
            "schedule_parity": parity,
            "leaked_leases": leaked,
            "rpc_calls": stats.rpc_calls,
            "faults_injected": stats.faults_injected,
            "retries": stats.retries,
            "duplicates_suppressed": stats.duplicates_suppressed,
            "exhausted": stats.exhausted,
        }

    return {
        "scenario": "chaos",
        "scenario_seed": seed,
        "policy": "tiresias",
        "lease_protocol": "optimistic",
        "fault_spec": {
            "drop_rate": FAULT_SPEC.drop_rate,
            "lose_reply_rate": FAULT_SPEC.lose_reply_rate,
            "duplicate_rate": FAULT_SPEC.duplicate_rate,
            "delay_rate": FAULT_SPEC.delay_rate,
            "delay_ms": FAULT_SPEC.delay_ms,
        },
        "retry_policy": {
            "max_attempts": RETRY_POLICY.max_attempts,
            "backoff_base_ms": RETRY_POLICY.backoff_base_ms,
            "backoff_max_ms": RETRY_POLICY.backoff_max_ms,
        },
        "rounds": ref_result.rounds,
        "reference_leaked_leases": ref_scheduler.leaked_leases(),
        "cells": cells,
        "all_schedule_parity": all_parity,
        "zero_leaked_leases": all_zero_leak,
        "recovery_counters_nonzero": all_recovered,
        "ok": all_parity and all_zero_leak and all_recovered,
    }


# ----------------------------------------------------------------------
# Driver: merge the sections into the two existing bench reports
# ----------------------------------------------------------------------


def _merge_section(path: Optional[str], section: Dict[str, object]) -> None:
    """Read-modify-write ``path``, setting its ``"chaos"`` key."""
    if not path:
        return
    report: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path) as handle:
            report = json.load(handle)
    report["chaos"] = section
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_chaos_bench(
    smoke: bool = False,
    federation_out: Optional[str] = "BENCH_federation.json",
    runtime_out: Optional[str] = "BENCH_runtime.json",
    seed: int = SCENARIO_SEED,
    started_at: Optional[float] = None,
) -> Dict[str, object]:
    """Run both chaos legs and merge their sections into the bench reports."""
    from repro.telemetry.events import run_metadata

    federation = run_federation_chaos(smoke=smoke)
    runtime = run_runtime_chaos(smoke=smoke, seed=seed)
    metadata = run_metadata(
        seed, {"benchmark": "chaos", "smoke": smoke}, started_at
    )
    federation["metadata"] = metadata
    runtime["metadata"] = metadata
    _merge_section(federation_out, federation)
    _merge_section(runtime_out, runtime)
    return {
        "benchmark": "chaos",
        "smoke": smoke,
        "federation": federation,
        "runtime": runtime,
        "metadata": metadata,
        "ok": bool(federation["ok"]) and bool(runtime["ok"]),
    }
