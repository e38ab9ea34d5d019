"""Drives the pipeline over real files or in-memory fixture sources.

``lint_paths`` is what the CLI calls; ``lint_sources``/``lint_source`` lint
virtual ``{relative path: source}`` trees so the per-rule fixture tests can
exercise scope-sensitive rules (a fixture under
``src/repro/simulator/fake.py`` lands in simulation scope) without writing
bad code to disk where CI would lint it.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.core import Finding, Pipeline, ProjectState
from repro.analysis.manifest import LintManifest, default_manifest
from repro.analysis.suppressions import FileSuppressions


@dataclass
class LintResult:
    """Outcome of one lint run: gating findings + coverage counters."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _default_rules():
    from repro.analysis import ALL_RULES

    return [cls() for cls in ALL_RULES]


def discover_files(paths: Sequence[Path], root: Path) -> List[Path]:
    """Expand path args into a sorted, deduplicated list of ``.py`` files."""
    seen: List[Path] = []
    for path in paths:
        path = path if path.is_absolute() else root / path
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            parts = candidate.parts
            if "__pycache__" in parts or any(
                part.startswith(".") and part not in (".", "..") for part in parts
            ):
                continue
            if candidate.suffix == ".py" and candidate not in seen:
                seen.append(candidate)
    return seen


def changed_files_since(ref: str, root: Path) -> List[Path]:
    """Files changed since ``ref`` (``--diff`` mode), rename/delete-aware.

    Uses ``git diff --name-status -M``: deletions are skipped (nothing to
    lint), renames lint the *new* path.  Untracked files are included so a
    brand-new module cannot dodge the diff lint.
    """
    diff = subprocess.run(
        ["git", "diff", "--name-status", "-M", ref, "--", "*.py"],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    )
    out: List[Path] = []
    for line in diff.stdout.splitlines():
        parts = line.split("\t")
        if not parts or not parts[0]:
            continue
        status = parts[0][0]
        if status == "D":
            continue
        # Renames/copies are "R<score>\told\tnew"; everything else "X\tpath".
        rel = parts[2] if status in ("R", "C") and len(parts) > 2 else parts[1]
        candidate = root / rel
        if candidate.suffix == ".py" and candidate.exists():
            out.append(candidate)
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "--", "*.py"],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    )
    for rel in untracked.stdout.splitlines():
        candidate = root / rel
        if candidate.suffix == ".py" and candidate.exists() and candidate not in out:
            out.append(candidate)
    return sorted(out)


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_sources(
    sources: Dict[str, str],
    root: Optional[Path] = None,
    manifest: Optional[LintManifest] = None,
    rules=None,
) -> LintResult:
    """Lint an in-memory ``{relative path: source}`` tree."""
    manifest = manifest or default_manifest()
    root = root or Path.cwd()
    pipeline = Pipeline(rules if rules is not None else _default_rules())
    project = ProjectState(root=root, manifest=manifest)
    result = LintResult()

    contexts = []
    suppressions: Dict[str, FileSuppressions] = {}
    for rel in sorted(sources):
        source = sources[rel]
        ctx = pipeline.run_file(root / rel, rel, source, manifest, project)
        contexts.append(ctx)
        suppressions[rel] = FileSuppressions(rel, source)
        result.files_checked += 1

    raw: List[Finding] = []
    for ctx in contexts:
        raw.extend(ctx.findings)
    raw.extend(pipeline.finalize(project))

    gating: List[Finding] = []
    for finding in raw:
        table = suppressions.get(finding.path)
        if table is not None and table.suppresses(finding):
            result.suppressed += 1
            continue
        gating.append(finding)

    for rel in sorted(suppressions):
        gating.extend(suppressions[rel].unused_findings())

    gating.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.findings = gating
    return result


def lint_source(
    source: str,
    virtual_path: str = "src/repro/simulator/fixture.py",
    manifest: Optional[LintManifest] = None,
    root: Optional[Path] = None,
    rules=None,
) -> List[Finding]:
    """Lint one in-memory snippet under a virtual path (test helper)."""
    return lint_sources(
        {virtual_path: source}, root=root, manifest=manifest, rules=rules
    ).findings


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    manifest: Optional[LintManifest] = None,
    rules=None,
) -> LintResult:
    """Lint files/directories on disk (the CLI entry path)."""
    root = root or Path.cwd()
    files = discover_files(paths, root)
    sources: Dict[str, str] = {}
    for path in files:
        rel = _relative(path, root)
        try:
            sources[rel] = path.read_text(encoding="utf-8")
        except OSError:
            # Unreadable file (permissions, raced delete): skip rather than
            # crash the whole run; --diff mode already filters deletions.
            continue
    return lint_sources(sources, root=root, manifest=manifest, rules=rules)
