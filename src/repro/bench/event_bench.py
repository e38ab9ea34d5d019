"""The skip-executor benchmark: the default simulator vs the stepping loop.

One cell, the 30-day low-load Philly workload (:mod:`repro.bench.workload`
``LONG_HORIZON``), run twice with identical everything except ``fast_forward``:
the default (skips executed by :mod:`repro.simulator.event_core`) and the
plain stepping loop (``fast_forward=False``), which is the paper's section-3
round abstraction and the reference every skip must match.  Both legs are
timed best-of-N with the round log disabled (the streaming configuration,
where skipped segments are O(1)) and compared on per-job completion times,
round count and end time; one further untimed leg each with the full round
log proves the logs bit-identical too.  The full configuration gates
``speedup_rounds_per_sec >= EVENT_SPEEDUP_GATE``.

Per-scenario and per-policy fast-forward-vs-stepping parity is recorded by
``BENCH_scenarios.json`` and the policy matrix; it is not repeated here.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.bench import workload
from repro.metrics.parity import schedule_diff
from repro.simulator.engine import SimulationResult

#: The long-horizon cell must run at least this many times faster with skips
#: than stepping (full configuration only; the smoke cell finishes in
#: milliseconds, where timer noise dominates).
EVENT_SPEEDUP_GATE = 5.0
#: Timing repetitions per leg (best-of).
_TIMING_REPS = 3


def _run_long_horizon(
    fast_forward: bool, smoke: bool, round_log_limit: Optional[int]
) -> Tuple[SimulationResult, float]:
    spec = workload.LONG_HORIZON_SMOKE if smoke else workload.LONG_HORIZON
    simulator = spec.build(
        fast_forward=fast_forward,
        round_log_limit=round_log_limit,
        max_rounds=2_000_000,
    )
    start = time.perf_counter()
    result = simulator.run()
    return result, time.perf_counter() - start


def run_event_bench(smoke: bool = False) -> Dict[str, object]:
    """Run the cell; returns the ``event_core`` section of ``BENCH_core.json``.

    Raises ``AssertionError`` when the default run diverges from stepping, or
    (full configuration) when the speedup misses its gate.
    """
    best = {True: float("inf"), False: float("inf")}
    last: Dict[bool, SimulationResult] = {}
    for _ in range(_TIMING_REPS):
        for fast_forward in (False, True):
            result, wall = _run_long_horizon(fast_forward, smoke, round_log_limit=0)
            best[fast_forward] = min(best[fast_forward], wall)
            last[fast_forward] = result
    timed_parity = schedule_diff(last[True], last[False])
    # The timed legs disable the round log (that is the streaming
    # configuration the cell measures), so log bit-identity is proved
    # separately at the same cell.
    log_parity = schedule_diff(
        _run_long_horizon(True, smoke, round_log_limit=None)[0],
        _run_long_horizon(False, smoke, round_log_limit=None)[0],
    )
    schedule_parity = timed_parity.identical and log_parity.identical

    rounds = last[True].rounds
    speedup = best[False] / best[True]
    report = {
        "scale": "smoke" if smoke else "full",
        "long_horizon": {
            "horizon_days": round(last[True].end_time / 86400.0, 2),
            "rounds": rounds,
            "finished_jobs": len(last[True].finished_jobs()),
            "stepping_wall_s": round(best[False], 4),
            "default_wall_s": round(best[True], 4),
            "stepping_rounds_per_sec": round(rounds / best[False], 1),
            "default_rounds_per_sec": round(rounds / best[True], 1),
            "speedup_rounds_per_sec": round(speedup, 2),
            "speedup_gate": EVENT_SPEEDUP_GATE,
            # The gate binds on the full configuration only: the smoke cell
            # runs in milliseconds, where timer noise dwarfs the separation.
            "gated": not smoke,
            "speedup_ok": smoke or speedup >= EVENT_SPEEDUP_GATE,
            "schedule_parity": schedule_parity,
            "parity": timed_parity.as_dict(),
            "round_log_parity": log_parity.as_dict(),
        },
        "all_schedule_parity": schedule_parity,
    }
    if not schedule_parity:
        raise AssertionError(
            "the skip executor diverged from the stepping loop: "
            f"timed: {timed_parity.first_divergence}; "
            f"logged: {log_parity.first_divergence}"
        )
    if not report["long_horizon"]["speedup_ok"]:
        raise AssertionError(
            f"long-horizon skip speedup {speedup:.2f}x "
            f"missed the >= {EVENT_SPEEDUP_GATE}x gate"
        )
    return report
