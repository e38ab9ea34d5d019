"""The skip-executor section: the default simulator vs the stepping loop.

The 30-day low-load Philly workload (:mod:`repro.bench.workload`
``LONG_HORIZON``) as one cell, ``long-horizon``: default vs
``fast_forward=False`` (the paper's section-3 round abstraction and the
reference every skip must match), run best-of-N for timing, speedup-gated on
the full configuration, and parity-gated -- completions, round log, round
count and end time -- on every repetition.

Per-scenario and per-policy fast-forward-vs-stepping parity is recorded by
``BENCH_scenarios.json`` and the policy matrix; it is not repeated here.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bench import cells, workload
from repro.bench.cells import Cell, Gate

#: The long-horizon cell must run at least this many times faster with skips
#: than stepping (full configuration only; the smoke cell finishes in
#: milliseconds, where timer noise dominates).
EVENT_SPEEDUP_GATE = 5.0
#: Timing repetitions of the cell (best-of per leg).
_TIMING_REPS = 3


def event_cell(smoke: bool) -> Cell:
    spec = workload.LONG_HORIZON_SMOKE if smoke else workload.LONG_HORIZON
    return Cell("long-horizon", spec, (cells.DEFAULT, cells.STEPPING))


def run_event_bench(smoke: bool = False, started_at: Optional[float] = None) -> Dict[str, object]:
    """Run the cell; returns the ``event_core`` section of ``BENCH_core.json``."""
    cell = event_cell(smoke)
    reps = [cells.run_cell(cell) for _ in range(_TIMING_REPS)]
    row = reps[-1]
    for leg in row["legs"]:
        best = min(rep["legs"][leg]["wall_s"] for rep in reps)
        row["legs"][leg] = {"wall_s": best, "rounds_per_sec": round(row["rounds"] / best, 1)}
    speedup = row["legs"]["stepping"]["wall_s"] / row["legs"]["default"]["wall_s"]
    rows = {cell.name: row}
    gates = [
        cells.parity_gate(
            "event-core timed parity", {f"rep{i}": rep for i, rep in enumerate(reps)}
        ),
        cells.parity_gate("event-core round-log parity", rows),
        Gate(
            "event-core speedup",
            speedup >= EVENT_SPEEDUP_GATE,
            enforced=not smoke,
            reason=f"{speedup:.2f}x against the >= {EVENT_SPEEDUP_GATE}x gate"
            + ("; smoke timings are noise" if smoke else ""),
        ),
    ]
    config = {
        "scale": "smoke" if smoke else "full",
        "timing_reps": _TIMING_REPS,
        "speedup_gate": EVENT_SPEEDUP_GATE,
    }
    return cells.artifact(
        "event-core",
        cell.spec.seed,
        config,
        gates,
        rows,
        started_at,
        long_horizon={
            "horizon_days": round(row["rounds"] * cell.spec.round_duration / 86400.0, 2),
            "speedup_rounds_per_sec": round(speedup, 2),
        },
    )
