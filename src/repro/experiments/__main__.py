"""``python -m repro.experiments [--smoke] [--only NAME ...]``: print the figures."""

from __future__ import annotations

import argparse

from repro.experiments.figures import FIGURES
from repro.experiments.harness import run_figure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the Blox paper's figures and print one table per figure.",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="run each figure's small grid (seconds, for CI)"
    )
    parser.add_argument(
        "--only", nargs="+", choices=list(FIGURES), metavar="NAME",
        help=f"run only these figures (default: all of {', '.join(FIGURES)})",
    )
    args = parser.parse_args(argv)
    for name in args.only or FIGURES:
        print(run_figure(FIGURES[name], smoke=args.smoke).to_text(), end="\n\n", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
