"""CLI entry point: ``python -m repro.scenarios [--smoke] [--out PATH]``."""

from __future__ import annotations

import argparse
import time

from repro.bench.cells import finish
from repro.scenarios.registry import scenario_names
from repro.scenarios.runner import SCENARIO_SEED, run_scenario_matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description=(
            "Run the policy x placement x scenario matrix (fast-forward vs. "
            "per-round stepping, schedule-parity checked)."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration: 2 policies x 2 churn-heavy scenarios",
    )
    parser.add_argument(
        "--out",
        default="BENCH_scenarios.json",
        help="output JSON path (default: BENCH_scenarios.json); '-' to skip writing",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=SCENARIO_SEED,
        help=f"scenario compilation seed (default: {SCENARIO_SEED})",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=scenario_names(),
        help="run only the named scenario(s); repeatable",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="worker processes for the sweep (default: one per task, capped at CPUs)",
    )
    args = parser.parse_args(argv)

    return finish(
        run_scenario_matrix(
            smoke=args.smoke,
            seed=args.seed,
            scenarios=args.scenario,
            processes=args.processes,
            started_at=time.time(),
        ),
        args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
