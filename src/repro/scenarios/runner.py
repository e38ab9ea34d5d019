"""The scenario matrix runner behind ``python -m repro.scenarios``.

Fans the policy x placement x scenario matrix out through the multi-process
sweep harness (:func:`repro.experiments.harness.run_sweep`).  Every cell is
simulated twice from the same compiled scenario:

* **fast-forward on** -- the event-skipping engine, with the scenario
  timeline bounding ``next_event_time`` so skipping stays active between
  churn events;
* **stepping** -- the same engine with ``fast_forward=False``, executing
  every round (what per-round failure injection used to force).

Both runs must produce identical per-job completion times, round logs,
round counts and end times (``schedule_parity``) -- scenario dynamics are
scheduled state changes, not noise, so fast-forward remains a pure
performance feature under churn.  The report also carries per-scenario summaries: JCT distribution
(avg/median/p95/p99), policy preemptions, event-driven evictions and the
capacity-weighted utilisation integrated over the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import PolicySpec, SweepTask, run_sweep
from repro.metrics.parity import schedule_diff
from repro.metrics.summary import scenario_summary
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES
from repro.scenarios.registry import SMOKE_SCENARIOS, get_scenario, scenario_names
from repro.telemetry.events import run_metadata

#: Seed every scenario in the checked-in matrix is compiled with.
SCENARIO_SEED = 20240701

#: (policy, placement) combinations of the full matrix: every policy against
#: the paper's default placement, plus a second placement for one gang and
#: one discretised policy.
FULL_COMBOS: Tuple[Tuple[str, str], ...] = (
    ("fifo", "consolidated"),
    ("srtf", "consolidated"),
    ("tiresias", "consolidated"),
    ("fifo", "first-free"),
    ("tiresias", "first-free"),
)

#: CI smoke: 2 policies x 1 placement x 2 churn-heavy scenarios.
SMOKE_COMBOS: Tuple[Tuple[str, str], ...] = (
    ("fifo", "consolidated"),
    ("tiresias", "consolidated"),
)


def run_scenario_matrix(
    smoke: bool = False,
    seed: int = SCENARIO_SEED,
    scenarios: Optional[Sequence[str]] = None,
    combos: Optional[Sequence[Tuple[str, str]]] = None,
    processes: Optional[int] = None,
    started_at: Optional[float] = None,
) -> Dict[str, object]:
    """Run the scenario matrix; returns the ``BENCH_scenarios.json`` payload.

    ``started_at`` is the caller's wall-clock stamp for the report metadata
    (the CLI passes ``time.time()``); the library never reads the clock.
    """
    if scenarios is None:
        scenarios = SMOKE_SCENARIOS if smoke else scenario_names()
    if combos is None:
        combos = SMOKE_COMBOS if smoke else FULL_COMBOS

    compiled = {name: get_scenario(name, smoke=smoke).compile(seed) for name in scenarios}

    tasks: List[SweepTask] = []
    for scenario_name in scenarios:
        scenario = compiled[scenario_name]
        for policy_name, placement_name in combos:
            for mode in ("fastforward", "stepping"):
                spec = PolicySpec(
                    label=f"{scenario_name}/{policy_name}/{placement_name}/{mode}",
                    scheduling=SCHEDULING_POLICIES[policy_name],
                    placement=PLACEMENT_POLICIES[placement_name],
                )
                tasks.append(
                    SweepTask(
                        label=spec.label,
                        trace=scenario.trace,
                        spec=spec,
                        run_kwargs={
                            # num_nodes is unused because a fresh cluster is
                            # passed explicitly, but run_policy requires it.
                            "num_nodes": scenario.spec.cluster.num_nodes,
                            "cluster": scenario.build_cluster(),
                            "cluster_manager": scenario.make_cluster_manager(),
                            "round_duration": scenario.spec.round_duration,
                            "fast_forward": mode == "fastforward",
                        },
                    )
                )

    results = dict(run_sweep(tasks, processes=processes))

    cells: Dict[str, object] = {}
    all_parity = True
    max_speedup = 0.0
    for scenario_name in scenarios:
        scenario = compiled[scenario_name]
        for policy_name, placement_name in combos:
            base = f"{scenario_name}/{policy_name}/{placement_name}"
            fastforward = results[f"{base}/fastforward"]
            stepping = results[f"{base}/stepping"]
            parity = schedule_diff(fastforward, stepping).identical
            all_parity = all_parity and parity
            ff_rps = (
                fastforward.rounds / fastforward.wall_time_s
                if fastforward.wall_time_s > 0
                else float("inf")
            )
            step_rps = (
                stepping.rounds / stepping.wall_time_s
                if stepping.wall_time_s > 0
                else float("inf")
            )
            speedup = ff_rps / step_rps if step_rps > 0 else None
            if speedup is not None:
                max_speedup = max(max_speedup, speedup)
            summary = scenario_summary(
                fastforward.jobs,
                fastforward.tracked_job_ids,
                fastforward.round_log,
                eviction_count=fastforward.eviction_count,
            )
            cells[base] = {
                "scenario": scenario_name,
                "policy": policy_name,
                "placement": placement_name,
                "schedule_parity": parity,
                "rounds": fastforward.rounds,
                "cluster_events": len(scenario.events),
                "fastforward_wall_s": round(fastforward.wall_time_s, 4),
                "stepping_wall_s": round(stepping.wall_time_s, 4),
                "fastforward_rounds_per_sec": round(ff_rps, 1),
                "stepping_rounds_per_sec": round(step_rps, 1),
                "speedup_rounds_per_sec": round(speedup, 2) if speedup else None,
                "summary": {
                    key: (round(value, 4) if isinstance(value, float) else value)
                    for key, value in summary.as_dict().items()
                },
            }

    config = {
        "seed": seed,
        "smoke": smoke,
        "scenarios": sorted(scenarios),
        "combos": [f"{policy}/{placement}" for policy, placement in combos],
    }
    return {
        "seed": seed,
        "smoke": smoke,
        "metadata": run_metadata(seed, config, started_at),
        "scenarios": {
            name: {
                "description": compiled[name].spec.description,
                "cluster_events": len(compiled[name].events),
                "jobs": len(compiled[name].trace),
            }
            for name in scenarios
        },
        "matrix": sorted(cells),
        "all_schedule_parity": all_parity,
        "max_speedup_rounds_per_sec": round(max_speedup, 2),
        "cells": cells,
    }
