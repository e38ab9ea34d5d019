"""The runtime benchmark: deployment path vs plain simulation, plus Fig. 19.

``python -m repro.bench --runtime`` drives every scenario in the registry
through three runs of the same compiled workload and cluster dynamics:

* **deployment / fast-forward** -- the :class:`CentralScheduler` (RPC
  launch/preempt, optimistic leases, membership sync, worker-metric pulls)
  with event skipping on;
* **deployment / stepping** -- the same deployment path executing every
  round;
* **simulation** -- the plain :class:`Simulator` via
  :func:`repro.experiments.harness.run_policy`.

All three use the same deterministic overhead model, so they must make
bit-identical scheduling decisions (``schedule_parity``: per-job completion
times, round logs, round counts and end times); the deployment runs
additionally must finish without ``LeaseError`` under every scenario's churn.
The report carries rounds/s for each run (the deployment tax is real RPC
bookkeeping) and the per-preemption lease-round latencies, plus the Fig. 19
lease-scaling sweep.  Results are written to ``BENCH_runtime.json``.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Sequence

from repro.experiments.fig19_lease_scaling import (
    DEFAULT_REVOCATIONS,
    DEFAULT_SIZES,
    run_fig19,
)
from repro.experiments.harness import PolicySpec, run_policy
from repro.metrics.parity import schedule_diff
from repro.policies.scheduling.tiresias import TiresiasScheduling
from repro.runtime.central_scheduler import CentralScheduler
from repro.scenarios.registry import SMOKE_SCENARIOS, get_scenario, scenario_names
from repro.scenarios.runner import SCENARIO_SEED
from repro.simulator.engine import SimulationResult
from repro.telemetry.events import run_metadata
from repro.simulator.overheads import OverheadModel

#: Cluster sizes (nodes of 4 GPUs) of the CI lease sweep; the full bench
#: uses the Fig. 19 runner's own defaults.
LEASE_SIZES_SMOKE = (4, 16)

#: The deployment bench runs the preemption-heavy policy so lease revocation
#: traffic is actually exercised in every scenario.
POLICY_NAME = "tiresias"


def _policy_spec() -> PolicySpec:
    return PolicySpec(label=POLICY_NAME, scheduling=TiresiasScheduling)


def _run_deployment(compiled, fast_forward: bool) -> Dict[str, object]:
    scheduler = CentralScheduler(
        cluster_state=compiled.build_cluster(),
        jobs=compiled.trace.fresh_jobs(),
        scheduling_policy=TiresiasScheduling(),
        round_duration=compiled.spec.round_duration,
        lease_protocol="optimistic",
        overhead_model=OverheadModel(),
        cluster_manager=compiled.make_cluster_manager(),
        tracked_job_ids=compiled.trace.tracked_ids(),
        fast_forward=fast_forward,
    )
    start = time.perf_counter()
    result = scheduler.run()
    wall = time.perf_counter() - start
    return {
        "result": result,
        "wall_time_s": wall,
        "lease_latencies_ms": scheduler.lease_latencies_ms(),
        "leases_left": len(scheduler.lease_manager.assignments),
        "worker_leases_left": sum(
            1
            for worker in scheduler.workers.values()
            for held in worker.leases.values()
            if held
        ),
        "workers": len(scheduler.workers),
        "metric_jobs": len(scheduler.worker_metrics.latest)
        if scheduler.worker_metrics
        else 0,
    }


def _run_simulation(compiled) -> Dict[str, object]:
    start = time.perf_counter()
    result = run_policy(
        compiled.trace,
        _policy_spec(),
        num_nodes=compiled.spec.cluster.num_nodes,
        cluster=compiled.build_cluster(),
        cluster_manager=compiled.make_cluster_manager(),
        round_duration=compiled.spec.round_duration,
        overhead_model=OverheadModel(),
    )
    return {"result": result, "wall_time_s": time.perf_counter() - start}


def _rounds_per_sec(result: SimulationResult, wall: float) -> float:
    return result.rounds / wall if wall > 0 else float("inf")


def _lease_stats(latencies: Sequence[float]) -> Dict[str, float]:
    if not latencies:
        return {"count": 0, "mean_ms": 0.0, "max_ms": 0.0}
    return {
        "count": len(latencies),
        "mean_ms": round(sum(latencies) / len(latencies), 4),
        "max_ms": round(max(latencies), 4),
    }


def run_runtime_bench(
    smoke: bool = False,
    out_path: Optional[str] = "BENCH_runtime.json",
    seed: int = SCENARIO_SEED,
    scenarios: Optional[Sequence[str]] = None,
    started_at: Optional[float] = None,
) -> Dict[str, object]:
    """Run the runtime benchmark; returns the ``BENCH_runtime.json`` payload.

    ``smoke`` shrinks every scenario to its CI variant and restricts the run
    to the churn-heavy smoke subset plus a small lease sweep.  ``started_at``
    is the caller's wall-clock stamp for the report metadata.
    """
    if scenarios is None:
        scenarios = SMOKE_SCENARIOS if smoke else scenario_names()

    cells: Dict[str, object] = {}
    all_parity = True
    for name in scenarios:
        compiled = get_scenario(name, smoke=smoke).compile(seed)
        deployment = _run_deployment(compiled, fast_forward=True)
        stepping = _run_deployment(compiled, fast_forward=False)
        simulation = _run_simulation(compiled)
        dep_result: SimulationResult = deployment["result"]
        parity = (
            schedule_diff(dep_result, simulation["result"]).identical
            and schedule_diff(dep_result, stepping["result"]).identical
        )
        all_parity = all_parity and parity
        dep_rps = _rounds_per_sec(dep_result, deployment["wall_time_s"])
        step_rps = _rounds_per_sec(stepping["result"], stepping["wall_time_s"])
        sim_rps = _rounds_per_sec(simulation["result"], simulation["wall_time_s"])
        cells[name] = {
            "scenario": name,
            "policy": POLICY_NAME,
            "lease_protocol": "optimistic",
            "schedule_parity": parity,
            "rounds": dep_result.rounds,
            "cluster_events": len(compiled.events),
            "evictions": dep_result.eviction_count,
            "deployment_rounds_per_sec": round(dep_rps, 1),
            "deployment_stepping_rounds_per_sec": round(step_rps, 1),
            "simulation_rounds_per_sec": round(sim_rps, 1),
            "deployment_tax": round(sim_rps / dep_rps, 2) if dep_rps > 0 else None,
            "fastforward_speedup": round(dep_rps / step_rps, 2) if step_rps > 0 else None,
            "lease_rounds": _lease_stats(deployment["lease_latencies_ms"]),
            "leases_left": deployment["leases_left"],
            "worker_leases_left": deployment["worker_leases_left"],
            "workers_final": deployment["workers"],
            "metric_jobs": deployment["metric_jobs"],
        }

    # The Fig. 19 sweep, via the experiment runner (single source of truth
    # for the measurement and the node spread of revocations).
    sizes = LEASE_SIZES_SMOKE if smoke else DEFAULT_SIZES
    lease_rows: List[Dict[str, object]] = [
        {**row, "latency_ms": round(row["latency_ms"], 4)}
        for row in run_fig19(sizes=sizes, revocations=DEFAULT_REVOCATIONS).rows
    ]

    # Rows are ordered size-major, then protocol, then revocation count.
    central = [r for r in lease_rows if r["protocol"] == "central"]
    optimistic = [r for r in lease_rows if r["protocol"] == "optimistic"]
    lease_claims = {
        # Central latency strictly grows with cluster size (any revocation count).
        "central_grows_with_cluster": all(
            a["latency_ms"] < b["latency_ms"]
            for a, b in zip(central, central[len(DEFAULT_REVOCATIONS) :])
        ),
        # Optimistic latency is a function of the revocation count only.
        "optimistic_independent_of_cluster": len(
            {(r["revocations"], r["latency_ms"]) for r in optimistic}
        )
        == len(DEFAULT_REVOCATIONS),
        "optimistic_grows_with_revocations": all(
            a["latency_ms"] < b["latency_ms"]
            for a, b in zip(optimistic, optimistic[1:])
            if a["num_nodes"] == b["num_nodes"]
        ),
    }

    report = {
        "benchmark": "runtime",
        "seed": seed,
        "smoke": smoke,
        "policy": POLICY_NAME,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenarios": sorted(cells),
        "all_schedule_parity": all_parity,
        "lease_errors": 0,  # any LeaseError would have aborted the bench
        "cells": cells,
        "lease_scaling": {
            "sizes": list(sizes),
            "revocations": list(DEFAULT_REVOCATIONS),
            "rows": lease_rows,
            "claims": lease_claims,
        },
    }
    report["metadata"] = run_metadata(
        seed,
        {"benchmark": "runtime", "smoke": smoke, "scenarios": sorted(cells)},
        started_at,
    )
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report
