"""The runtime bench: deployment path vs plain simulation, plus Fig. 19.

One cell per registry scenario: a runtime-mode ``RunSpec`` (Tiresias, so
lease revocation traffic is exercised under every scenario's churn) run by
``default`` (the :class:`CentralScheduler`: RPC launch/preempt, optimistic
leases, membership sync, worker-metric pulls), ``stepping`` (the same path
executing every round) and ``simulation`` (the plain simulator with the same
deterministic overhead model).  All three must make one schedule, and a
``LeaseError`` in a deployment leg aborts the bench.  This module's own: the
per-leg lease facts, and the Fig. 19 lease-scaling sweep with its claims.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench import cells
from repro.bench.cells import Cell, Gate, built
from repro.experiments.fig19_lease_scaling import (
    DEFAULT_REVOCATIONS,
    DEFAULT_SIZES,
    run_fig19,
)
from repro.scenarios.registry import SMOKE_SCENARIOS, get_scenario, scenario_names
from repro.scenarios.runner import SCENARIO_SEED
from repro.telemetry.runspec import RunSpec

#: Cluster sizes (nodes of 4 GPUs) of the CI lease sweep; the full bench
#: uses the Fig. 19 runner's own defaults.
LEASE_SIZES_SMOKE = (4, 16)

POLICY_NAME = "tiresias"


def deployment_facts(scheduler, result) -> Dict[str, object]:
    """What a deployment leg leaves behind besides its schedule."""
    latencies = scheduler.lease_latencies_ms()
    return {
        "lease_rounds": {
            "count": len(latencies),
            "mean_ms": round(sum(latencies) / len(latencies), 4) if latencies else 0.0,
            "max_ms": round(max(latencies), 4) if latencies else 0.0,
        },
        # Every scheduler- and worker-side lease entry still held.
        "leaked_leases": scheduler.leaked_leases(),
        "workers_final": len(scheduler.workers),
        "metric_jobs": len(scheduler.worker_metrics.latest) if scheduler.worker_metrics else 0,
    }


def runtime_spec(scenario: str, smoke: bool, seed: int = SCENARIO_SEED) -> RunSpec:
    return RunSpec(
        mode="runtime", policy=POLICY_NAME, seed=seed, scenario=scenario, scenario_smoke=smoke
    )


def runtime_cells(smoke: bool) -> List[Cell]:
    legs = (
        built("default", facts=deployment_facts),
        built("stepping", facts=deployment_facts, fast_forward=False),
        cells.SIMULATION,
    )
    return [
        Cell(name, runtime_spec(name, smoke), legs)
        for name in (SMOKE_SCENARIOS if smoke else scenario_names())
    ]


def lease_scaling(smoke: bool) -> Dict[str, object]:
    """The Fig. 19 sweep, via the experiment runner (single source of truth
    for the measurement and the node spread of revocations), and its claims."""
    sizes = LEASE_SIZES_SMOKE if smoke else DEFAULT_SIZES
    rows = [
        {**row, "latency_ms": round(row["latency_ms"], 4)}
        for row in run_fig19(sizes=sizes, revocations=DEFAULT_REVOCATIONS).rows
    ]
    # Rows are ordered size-major, then protocol, then revocation count.
    central = [r for r in rows if r["protocol"] == "central"]
    optimistic = [r for r in rows if r["protocol"] == "optimistic"]
    claims = {
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
    return {
        "sizes": list(sizes),
        "revocations": list(DEFAULT_REVOCATIONS),
        "rows": rows,
        "claims": claims,
    }


def run_runtime_bench(smoke: bool = False, started_at: Optional[float] = None) -> Dict[str, Dict]:
    """Run the scenario cells and the lease sweep; returns ``{path: artifact}``.

    ``smoke`` shrinks every scenario to its CI variant and restricts the run
    to the churn-heavy smoke subset plus a small lease sweep.
    """
    rows: Dict[str, Dict] = {}
    for cell in runtime_cells(smoke):
        runs = cells.run_legs(cell)
        compiled = get_scenario(cell.name, smoke=smoke).compile(cell.spec.seed)
        rows[cell.name] = {
            **cells.run_cell(cell, runs),
            "cluster_events": len(compiled.events),
            "evictions": runs[0].result.eviction_count,
        }
    sweep = lease_scaling(smoke)
    gates = [
        cells.parity_gate("deployment-vs-simulation parity", rows, "simulation"),
        cells.parity_gate("deployment-vs-stepping parity", rows, "stepping"),
        *(
            Gate(f"lease claim {name}", ok, reason="Fig. 19 sweep, see lease_scaling.rows")
            for name, ok in sweep["claims"].items()
        ),
    ]
    config = {"smoke": smoke, "policy": POLICY_NAME, "scenarios": sorted(rows)}
    return {
        "BENCH_runtime.json": cells.artifact(
            "runtime", SCENARIO_SEED, config, gates, rows, started_at, lease_scaling=sweep
        )
    }
