"""The skip-executor section: the default simulator vs the stepping loop.

The 30-day low-load Philly workload (:mod:`repro.bench.workload`
``LONG_HORIZON``) as two cells, each default vs ``fast_forward=False`` (the
paper's section-3 round abstraction and the reference every skip must
match): ``long-horizon/streaming`` with the round log disabled (the
streaming configuration, where skipped segments are O(1)), timed best-of-N
and speedup-gated on the full configuration, and ``long-horizon/logged``
with the full round log, which proves the logs bit-identical too.

Per-scenario and per-policy fast-forward-vs-stepping parity is recorded by
``BENCH_scenarios.json`` and the policy matrix; it is not repeated here.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bench import cells, workload
from repro.bench.cells import Cell, Gate, built

#: The long-horizon cell must run at least this many times faster with skips
#: than stepping (full configuration only; the smoke cell finishes in
#: milliseconds, where timer noise dominates).
EVENT_SPEEDUP_GATE = 5.0
#: Timing repetitions of the streaming cell (best-of per leg).
_TIMING_REPS = 3


def event_cells(smoke: bool) -> Tuple[Cell, Cell]:
    """The ``(streaming, logged)`` pair."""
    spec = workload.LONG_HORIZON_SMOKE if smoke else workload.LONG_HORIZON
    return (
        Cell(
            "long-horizon/streaming",
            spec,
            (
                built("default", round_log_limit=0),
                built("stepping", fast_forward=False, round_log_limit=0),
            ),
        ),
        Cell("long-horizon/logged", spec, (cells.DEFAULT, cells.STEPPING)),
    )


def run_event_bench(smoke: bool = False, started_at: Optional[float] = None) -> Dict[str, object]:
    """Run both cells; returns the ``event_core`` section of ``BENCH_core.json``."""
    streaming, logged = event_cells(smoke)
    reps = [cells.run_cell(streaming) for _ in range(_TIMING_REPS)]
    row = reps[-1]
    for leg in row["legs"]:
        best = min(rep["legs"][leg]["wall_s"] for rep in reps)
        row["legs"][leg] = {"wall_s": best, "rounds_per_sec": round(row["rounds"] / best, 1)}
    speedup = row["legs"]["stepping"]["wall_s"] / row["legs"]["default"]["wall_s"]
    rows = {streaming.name: row, logged.name: cells.run_cell(logged)}
    gates = [
        cells.parity_gate(
            "event-core timed parity", {f"rep{i}": rep for i, rep in enumerate(reps)}
        ),
        cells.parity_gate("event-core round-log parity", {logged.name: rows[logged.name]}),
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
        streaming.spec.seed,
        config,
        gates,
        rows,
        started_at,
        long_horizon={
            "horizon_days": round(row["rounds"] * streaming.spec.round_duration / 86400.0, 2),
            "speedup_rounds_per_sec": round(speedup, 2),
        },
    )
