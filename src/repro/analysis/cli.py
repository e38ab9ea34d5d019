"""CLI for the invariant linter: ``python -m repro.lint``.

Exit codes: 0 clean, 1 findings, 2 usage/environment error -- CI gates on
them directly.  ``--diff <ref>`` keeps the CI job O(changed files) as the
repo grows.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.runner import (
    LintResult,
    changed_files_since,
    lint_paths,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant linter: determinism (D1xx), picklability "
            "(P1xx), policy contracts (C1xx), hot-path hygiene (H1xx). "
            "See docs/static-analysis.md for the rule catalog."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--diff",
        metavar="REF",
        help="lint only files changed since the given git ref "
        "(renames follow the new path, deletions are skipped)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root paths are reported relative to (default: cwd)",
    )
    return parser


def _render_text(result: LintResult, stream) -> None:
    for finding in result.findings:
        print(finding.render(), file=stream)
    summary = (
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
    )
    if result.suppressed:
        summary += f" ({result.suppressed} suppressed)"
    print(summary, file=stream)


def _render_json(result: LintResult, stream) -> None:
    json.dump(
        {
            "findings": [f.as_record() for f in result.findings],
            "files_checked": result.files_checked,
            "suppressed": result.suppressed,
        },
        stream,
        indent=2,
    )
    print(file=stream)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    root = Path(args.root).resolve()

    if args.diff:
        try:
            files = changed_files_since(args.diff, root)
        except subprocess.CalledProcessError as exc:
            stderr = (exc.stderr or "").strip()
            print(f"error: git diff against {args.diff!r} failed: {stderr}", file=sys.stderr)
            return 2
        # Restrict the diff set to the requested paths so
        # `--diff REF src/` does not drag in changed tooling files.
        wanted = [
            (p if Path(p).is_absolute() else root / p) for p in args.paths
        ]
        files = [
            f
            for f in files
            if any(
                f == w or w in f.parents for w in (p.resolve() for p in wanted)
            )
        ]
        if not files:
            print("0 finding(s) in 0 file(s) (no changed files)", file=sys.stdout)
            return 0
        result = lint_paths(files, root=root)
    else:
        result = lint_paths([Path(p) for p in args.paths], root=root)

    if args.format == "json":
        _render_json(result, sys.stdout)
    else:
        _render_text(result, sys.stdout)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
