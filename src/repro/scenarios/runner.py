"""The scenario matrix behind ``python -m repro.scenarios``.

One cell per policy x placement x scenario: a core-mode ``RunSpec`` naming
the scenario, executed with fast-forward on (the scenario timeline bounds
``next_event_time``, so skipping stays active between churn events) and by
the stepping loop (what per-round failure injection used to force).  Both
must produce one schedule -- scenario dynamics are scheduled state changes,
not noise, so fast-forward remains a pure performance feature under churn.
The ``(spec, leg)`` tasks fan out through
:func:`repro.experiments.harness.run_sweep`; each ships a run description,
never a live cluster.  The per-cell scenario summaries (JCT distribution,
policy preemptions, event-driven evictions, capacity-weighted utilisation
integrated over the run) are this module's own.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import cells
from repro.bench.cells import Cell
from repro.experiments.harness import run_sweep
from repro.metrics.summary import scenario_summary
from repro.scenarios.registry import SMOKE_SCENARIOS, get_scenario, scenario_names
from repro.telemetry.runspec import RunSpec

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


def scenario_cells(
    smoke: bool,
    seed: int,
    scenarios: Sequence[str],
    combos: Sequence[Tuple[str, str]],
) -> List[Cell]:
    return [
        Cell(
            f"{scenario}/{policy}/{placement}",
            RunSpec(
                policy=policy,
                placement=placement,
                seed=seed,
                scenario=scenario,
                scenario_smoke=smoke,
            ),
            (cells.DEFAULT, cells.STEPPING),
        )
        for scenario in scenarios
        for policy, placement in combos
    ]


def run_scenario_matrix(
    smoke: bool = False,
    seed: int = SCENARIO_SEED,
    scenarios: Optional[Sequence[str]] = None,
    combos: Optional[Sequence[Tuple[str, str]]] = None,
    processes: Optional[int] = None,
    started_at: Optional[float] = None,
) -> Dict[str, Dict]:
    """Run the scenario matrix; returns ``{"BENCH_scenarios.json": artifact}``.

    ``started_at`` is the caller's wall-clock stamp for the report metadata
    (the CLI passes ``time.time()``); the library never reads the clock.
    """
    if scenarios is None:
        scenarios = SMOKE_SCENARIOS if smoke else scenario_names()
    if combos is None:
        combos = SMOKE_COMBOS if smoke else FULL_COMBOS
    matrix = scenario_cells(smoke, seed, scenarios, combos)
    runs = iter(
        run_sweep(
            [partial(leg.run, cell.spec) for cell in matrix for leg in cell.legs],
            processes=processes,
        )
    )
    compiled = {name: get_scenario(name, smoke=smoke).compile(seed) for name in scenarios}

    rows: Dict[str, Dict] = {}
    for cell in matrix:
        cell_runs = [next(runs) for _ in cell.legs]
        result = cell_runs[0].result
        summary = scenario_summary(
            result.jobs,
            result.tracked_job_ids,
            result.round_log,
            eviction_count=result.eviction_count,
        )
        rows[cell.name] = {
            **cells.run_cell(cell, cell_runs),
            "cluster_events": len(compiled[cell.spec.scenario].events),
            "summary": {
                key: (round(value, 4) if isinstance(value, float) else value)
                for key, value in summary.as_dict().items()
            },
        }

    config = {
        "smoke": smoke,
        "scenarios": sorted(scenarios),
        "combos": [f"{policy}/{placement}" for policy, placement in combos],
    }
    return {
        "BENCH_scenarios.json": cells.artifact(
            "scenarios",
            seed,
            config,
            [cells.parity_gate("scenario-matrix parity", rows)],
            rows,
            started_at,
            scenarios={
                name: {
                    "description": compiled[name].spec.description,
                    "cluster_events": len(compiled[name].events),
                    "jobs": len(compiled[name].trace),
                }
                for name in scenarios
            },
        )
    }
