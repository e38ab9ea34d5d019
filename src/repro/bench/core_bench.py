"""The core bench: the 256-GPU Philly cell, four ways, plus recording overhead.

The seeded Philly workload (:mod:`repro.bench.workload`) under FIFO +
consolidated placement, run by ``default``, ``stepping``, ``scan-state`` and
``traced``; all four must produce one schedule.  This module's own is the
telemetry-overhead measurement (traced vs untraced CPU time, gated at
``TELEMETRY_OVERHEAD_GATE`` on the full configuration).  The artifact also
carries the skip-executor section and the policy matrix.
"""

from __future__ import annotations

import gc
from typing import Dict, Optional, Sequence, Tuple

from repro.bench import cells, workload
from repro.bench.cells import Cell, Gate, LegRun
from repro.bench.event_bench import run_event_bench
from repro.bench.policy_bench import policy_cells

#: Recording a run may cost at most this fraction of the untraced CPU time
#: (gated on the full configuration; smoke timings are noise-dominated).
TELEMETRY_OVERHEAD_GATE = 0.05
#: Interleaved timing repetitions per leg for the overhead measurement, on
#: top of the cell's own traced and untraced runs (best-of).
_OVERHEAD_REPS = 5


def _telemetry_overhead(
    cell: Cell, runs: Sequence[LegRun], smoke: bool
) -> Tuple[Dict[str, object], Gate]:
    """Recording cost: traced vs untraced default legs, best-of-N.

    The ratio is taken between per-leg minima over interleaved repetitions,
    which is what makes a ~5% gate meaningful on a sub-second run.  The gate
    binds on **process CPU time**: recording cost is pure CPU (encode + write
    to page cache), while wall time also absorbs scheduler preemption from
    whatever else the machine is running (wall numbers are still reported).
    That recording leaves the schedule alone is the cell's ``traced`` parity.
    """
    untraced, traced = [runs[0]], [runs[-1]]
    # Freeze the heap the earlier legs accumulated: without this, the traced
    # leg's extra allocations trigger collections that scan the whole bench
    # heap, billing unrelated GC work to the recording overhead (the effect
    # is context-dependent, which is worse than being slow).
    gc.collect()
    gc.freeze()
    try:
        for _ in range(_OVERHEAD_REPS):
            traced.append(cells.TRACED.run(cell.spec))
            untraced.append(cells.DEFAULT.run(cell.spec))
            gc.collect()
    finally:
        gc.unfreeze()
    traced_cpu = min(run.cpu_s for run in traced)
    untraced_cpu = min(run.cpu_s for run in untraced)
    overhead = traced_cpu / untraced_cpu - 1 if untraced_cpu > 0 else 0.0
    section = {
        "events": traced[0].facts["events"],
        "traced_cpu_time_s": round(traced_cpu, 4),
        "untraced_cpu_time_s": round(untraced_cpu, 4),
        "traced_wall_time_s": round(min(run.wall_s for run in traced), 4),
        "untraced_wall_time_s": round(min(run.wall_s for run in untraced), 4),
        "overhead_fraction": round(overhead, 4),
        "overhead_gate": TELEMETRY_OVERHEAD_GATE,
    }
    # The smoke run finishes in tens of milliseconds, where timer noise
    # dwarfs any real recording cost.
    gate = Gate(
        "telemetry overhead",
        overhead <= TELEMETRY_OVERHEAD_GATE,
        enforced=not smoke,
        reason=f"{overhead:+.2%} CPU against the {TELEMETRY_OVERHEAD_GATE:.0%} gate"
        + ("; smoke timings are noise" if smoke else ""),
    )
    return section, gate


def run_core_bench(
    smoke: bool = False, policies: bool = True, started_at: Optional[float] = None
) -> Dict[str, Dict]:
    """Run the core cell, the overhead measurement, the skip-executor section
    and (``policies``) the policy matrix; returns ``{artifact path: artifact}``."""
    cell = Cell(
        "core",
        workload.SMOKE if smoke else workload.FULL,
        (cells.DEFAULT, cells.STEPPING, cells.SCAN_STATE, cells.TRACED),
    )
    runs = cells.run_legs(cell)
    rows = {cell.name: cells.run_cell(cell, runs)}
    gates = [
        cells.parity_gate("core parity", rows, "stepping"),
        cells.parity_gate("scan-state parity", rows, "scan-state"),
        cells.parity_gate("traced parity", rows, "traced"),
    ]
    telemetry, overhead_gate = _telemetry_overhead(cell, runs, smoke)
    gates.append(overhead_gate)
    matrix = policy_cells(smoke) if policies else ()
    if matrix:
        policy_rows = {c.name: cells.run_cell(c) for c in matrix}
        gates.append(cells.parity_gate("policy-matrix parity", policy_rows))
        rows.update(policy_rows)
    config = {
        "scale": "smoke" if smoke else "full",
        "policy_matrix": [c.name for c in matrix],
        "overhead_reps": _OVERHEAD_REPS,
    }
    return {
        "BENCH_core.json": cells.artifact(
            "core",
            cell.spec.seed,
            config,
            gates,
            rows,
            started_at,
            telemetry=telemetry,
            event_core=run_event_bench(smoke, started_at),
        )
    }
