"""The policy-layer benchmark: incremental policies vs. their pre-PR selves.

Runs a scheduling-policy x placement matrix over the seeded 256-GPU
Philly-style workload (:mod:`repro.bench.workload`).  Each cell simulates the
same trace twice:

* **baseline** -- the pre-refactor policy implementation
  (:mod:`repro.bench.legacy`: full re-sorts, Pollux's O(capacity x jobs)
  scan, Gavel's per-job type-set rebuild, Tiresias' impure comparator) on
  :class:`~repro.bench.legacy.LegacyPolicySimulator`, which reproduces the
  pre-refactor engine cost model (classic per-round light loops only, no
  steady-mode strides, no rate/view caching);
* **current** -- the incremental policy on the current
  :class:`~repro.simulator.engine.Simulator` with event-aware fast-forward.

Both runs must produce identical per-job completion times and round logs
(``schedule_parity``), so per-cell speedups are pure hot-path work, not
behaviour changes.  Wall times take the best of ``repeats`` runs to damp
scheduler noise; the parity verdict comes from the first pair.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.bench import workload
from repro.bench.legacy import LEGACY_SCHEDULING, LegacyPolicySimulator
from repro.metrics.parity import schedule_diff
from repro.policies.placement import PLACEMENT_POLICIES
from repro.simulator.engine import SimulationResult
from repro.telemetry.runspec import RunSpec

#: (policy, placement) cells of the full matrix: every policy against the
#: default placement of the paper's comparisons, plus a second placement for
#: one gang and one discretised policy to exercise the placement dimension.
FULL_MATRIX: Tuple[Tuple[str, str], ...] = (
    ("fifo", "consolidated"),
    ("srtf", "consolidated"),
    ("las", "consolidated"),
    ("tiresias", "consolidated"),
    ("gavel", "consolidated"),
    ("pollux", "consolidated"),
    ("fifo", "first-free"),
    ("tiresias", "first-free"),
)

#: CI configuration: one control cell plus the two headline elastic cells, so
#: a policy-layer regression (perf machinery or schedule change) fails CI.
SMOKE_MATRIX: Tuple[Tuple[str, str], ...] = (
    ("fifo", "consolidated"),
    ("tiresias", "consolidated"),
    ("pollux", "consolidated"),
)


def _run_cell_case(spec: RunSpec, legacy: bool) -> Tuple[SimulationResult, float]:
    if legacy:
        simulator = LegacyPolicySimulator(
            cluster_state=spec.cluster(),
            jobs=spec.trace().fresh_jobs(),
            scheduling_policy=LEGACY_SCHEDULING[spec.policy](),
            placement_policy=PLACEMENT_POLICIES[spec.placement](),
            round_duration=spec.round_duration,
        )
    else:
        simulator = spec.build()
    start = time.perf_counter()
    result = simulator.run()
    return result, time.perf_counter() - start


def run_policy_bench(
    smoke: bool = False,
    repeats: Optional[int] = None,
    matrix: Optional[Tuple[Tuple[str, str], ...]] = None,
) -> Dict[str, object]:
    """Run the policy x placement matrix; returns the per-cell report dict."""
    if matrix is None:
        matrix = SMOKE_MATRIX if smoke else FULL_MATRIX
    if repeats is None:
        repeats = 1 if smoke else 3
    base = workload.SMOKE if smoke else workload.FULL

    cells: Dict[str, object] = {}
    all_parity = True
    for policy_name, placement_name in matrix:
        spec = replace(base, policy=policy_name, placement=placement_name)
        current_walls: List[float] = []
        baseline_walls: List[float] = []
        current_result = baseline_result = None
        for _ in range(repeats):
            result, wall = _run_cell_case(spec, legacy=False)
            if current_result is None:
                current_result = result
            current_walls.append(wall)
            result, wall = _run_cell_case(spec, legacy=True)
            if baseline_result is None:
                baseline_result = result
            baseline_walls.append(wall)

        parity = schedule_diff(baseline_result, current_result).identical
        all_parity = all_parity and parity
        wall_new = min(current_walls)
        wall_old = min(baseline_walls)
        rps_new = current_result.rounds / wall_new if wall_new > 0 else float("inf")
        rps_old = baseline_result.rounds / wall_old if wall_old > 0 else float("inf")
        cells[f"{policy_name}/{placement_name}"] = {
            "policy": policy_name,
            "placement": placement_name,
            "schedule_parity": parity,
            "rounds": current_result.rounds,
            "baseline_wall_time_s": round(wall_old, 4),
            "current_wall_time_s": round(wall_new, 4),
            "baseline_rounds_per_sec": round(rps_old, 1),
            "current_rounds_per_sec": round(rps_new, 1),
            "speedup_rounds_per_sec": round(rps_new / rps_old, 2) if rps_old else None,
            "finished_jobs": len(current_result.finished_jobs()),
            "avg_jct_s": round(current_result.avg_jct(), 2),
        }

    return {
        "matrix": [f"{p}/{pl}" for p, pl in matrix],
        "repeats": repeats,
        "all_schedule_parity": all_parity,
        "cells": cells,
    }
