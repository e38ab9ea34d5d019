#!/usr/bin/env python3
"""Link-check the documentation so documented paths and anchors can't rot.

Checks, for ``README.md`` and every ``docs/*.md``:

* **relative links** ``[text](path)`` resolve to an existing file or
  directory (relative to the linking file, like GitHub renders them);
* **anchor links** ``[text](#section)`` and ``[text](path#section)`` point
  at a heading that actually exists in the target file (GitHub's slug
  rules: lowercase, punctuation stripped, spaces to dashes, ``-N`` suffix
  for duplicates);
* **backtick file references** -- inline code spans that look like repo
  paths (``src/...``, ``docs/...``, ``tests/...``, ``tools/...`` or a
  top-level ``*.md``/``*.json``/``*.py``/``*.yml``) name files that exist,
  so prose like "see `src/repro/federation/engine.py`" breaks CI when the
  file moves;
* **module commands** -- every ``python -m repro.<module>`` mentioned
  anywhere (prose *and* fenced code blocks) resolves to a real module under
  ``src/`` that is runnable (a package with ``__main__.py``, or a plain
  module), so documented entry points like ``python -m repro.trace`` break
  CI when they move;
* **lint rule ids** -- every rule id documented in
  ``docs/static-analysis.md`` exists in ``repro.analysis.rule_catalog()``,
  and every registered rule is documented there, so the rule catalog and its
  reference page cannot drift apart;
* **policy names** -- the "Name" column of each registry-backed table in
  ``docs/policies.md`` (scheduling, placement, admission, workloads, routers)
  equals the keys of the registry that resolves those names
  (``SCHEDULING_POLICIES``, ``PLACEMENT_POLICIES``, ``ADMISSION_POLICIES``,
  ``WORKLOAD_GENERATORS``, ``ROUTER_FACTORIES``), in both directions, so a
  documented name is always one ``RunSpec`` / ``python -m repro.trace record``
  accepts and a registered policy is always documented;
* **bench artifacts** -- every checked-in ``BENCH_*.json`` has the one shape
  ``repro.bench.cells.write_artifact`` writes: exactly the top-level keys
  ``benchmark``/``machine``/``metadata``/``config``/``gates``/``cells``/
  ``sections``, every gate with ``ok``/``enforced``/``reason``, every cell
  with ``legs`` and a ``parity`` block, and the same again for every section
  a separate command produced -- so the numbers the docs quote are read from
  one place in one shape.

External ``http(s)://`` / ``mailto:`` links are skipped (CI has no network
guarantee).  Exit status is the number of broken references; the CLI smoke
checks (documented commands answering ``--help``) live next to this in the
CI docs job.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links: [text](target) -- images share the syntax.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: ATX headings, used to build the anchor table of a file.
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
#: Inline code spans that look like repo-relative file paths.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
PATHLIKE_RE = re.compile(
    r"^(?:src|docs|tests|tools|experiments)/[\w./\-]+$|^[\w.\-]+\.(?:md|json|py|yml|toml)$"
)
#: Path-like spans that are *patterns or outputs*, not checked-in files.
PATH_ALLOWLIST = {
    "docs/*.md",
}
#: Documented runnable modules: ``python -m repro.bench --smoke`` etc.
MODULE_CMD_RE = re.compile(r"python\s+-m\s+(repro(?:\.\w+)+)")


def strip_code_blocks(text: str) -> str:
    """Remove fenced code blocks (``` ... ```): their contents are not links."""
    out: List[str] = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            out.append("")
            continue
        out.append("" if in_fence else line)
    return "\n".join(out)


def github_slug(heading: str, seen: Dict[str, int]) -> str:
    """GitHub's heading-to-anchor slug, with duplicate numbering."""
    # Strip markdown emphasis/code markers, then non-word punctuation.
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    slug = text.replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def anchors_of(path: Path) -> List[str]:
    seen: Dict[str, int] = {}
    anchors = []
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            anchors.append(github_slug(match.group(2), seen))
    return anchors


def check_file(md_path: Path) -> List[str]:
    errors: List[str] = []
    raw = md_path.read_text()
    text = strip_code_blocks(raw)
    rel = md_path.relative_to(REPO_ROOT)

    def check_anchor(target_file: Path, anchor: str, link: str) -> None:
        if anchor not in anchors_of(target_file):
            errors.append(f"{rel}: broken anchor {link!r} (no heading slug #{anchor})")

    for match in LINK_RE.finditer(text):
        link = match.group(1)
        if link.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = link.partition("#")
        if not path_part:
            check_anchor(md_path, anchor, link)
            continue
        target = (md_path.parent / path_part).resolve()
        if not target.exists():
            errors.append(f"{rel}: broken link {link!r} (no such file {path_part})")
            continue
        if anchor:
            if target.suffix.lower() != ".md":
                errors.append(f"{rel}: anchor on non-markdown target {link!r}")
            else:
                check_anchor(target, anchor, link)

    for match in CODE_SPAN_RE.finditer(text):
        span = match.group(1).strip()
        if span in PATH_ALLOWLIST or not PATHLIKE_RE.match(span):
            continue
        if not (REPO_ROOT / span).exists():
            errors.append(f"{rel}: stale file reference `{span}` (no such file)")

    # Module commands can hide inside fenced quickstart blocks, so scan the
    # raw text, not the stripped one.
    for module in sorted({m.group(1) for m in MODULE_CMD_RE.finditer(raw)}):
        base = REPO_ROOT / "src" / Path(*module.split("."))
        runnable = (base / "__main__.py").exists() or base.with_suffix(".py").exists()
        if not runnable:
            errors.append(
                f"{rel}: documented command `python -m {module}` is not "
                "runnable (no __main__.py package or module under src/)"
            )
    return errors


#: Rule ids as they appear in docs/static-analysis.md prose and tables.
RULE_ID_RE = re.compile(r"`([A-Z]\d{3})`")


def check_lint_rule_ids() -> List[str]:
    """docs/static-analysis.md and ``repro.analysis.rule_catalog()`` agree."""
    doc = REPO_ROOT / "docs" / "static-analysis.md"
    if not doc.exists():
        return ["missing documentation file: docs/static-analysis.md"]
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.analysis import rule_catalog
    except Exception as exc:  # pragma: no cover - import environment issues
        return [f"docs/static-analysis.md: cannot import repro.analysis ({exc})"]
    finally:
        sys.path.pop(0)
    registered = set(rule_catalog())
    documented = set(RULE_ID_RE.findall(doc.read_text()))
    errors = [
        f"docs/static-analysis.md: documents unknown rule id `{rule}` "
        "(not in repro.analysis.rule_catalog())"
        for rule in sorted(documented - registered)
    ]
    errors.extend(
        f"docs/static-analysis.md: registered rule `{rule}` is undocumented"
        for rule in sorted(registered - documented)
    )
    return errors


#: ``docs/policies.md`` section heading (prefix) -> the registry whose keys
#: that section's "Name" column must equal.
POLICY_REGISTRIES = {
    "## Scheduling policies": ("repro.policies.scheduling", "SCHEDULING_POLICIES"),
    "## Placement policies": ("repro.policies.placement", "PLACEMENT_POLICIES"),
    "## Admission policies": ("repro.policies.admission", "ADMISSION_POLICIES"),
    "## Workloads": ("repro.workloads", "WORKLOAD_GENERATORS"),
    "## Federation routers": ("repro.federation.router", "ROUTER_FACTORIES"),
}
#: First cell of a table row: ``| `name` | ...``.
NAME_CELL_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def check_policy_names() -> List[str]:
    """docs/policies.md "Name" columns and the policy registries agree."""
    import importlib

    doc = REPO_ROOT / "docs" / "policies.md"
    if not doc.exists():
        return ["missing documentation file: docs/policies.md"]
    documented: Dict[str, set] = {heading: set() for heading in POLICY_REGISTRIES}
    section = None
    for line in doc.read_text().splitlines():
        if line.startswith("## "):
            section = next((h for h in POLICY_REGISTRIES if line.startswith(h)), None)
        match = NAME_CELL_RE.match(line)
        if section is not None and match:
            documented[section].add(match.group(1))
    errors: List[str] = []
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        for heading, (module, attribute) in POLICY_REGISTRIES.items():
            registered = set(getattr(importlib.import_module(module), attribute))
            errors.extend(
                f"docs/policies.md: {heading[3:]!r} documents `{name}`, which "
                f"is not a key of {module}.{attribute}"
                for name in sorted(documented[heading] - registered)
            )
            errors.extend(
                f"docs/policies.md: {module}.{attribute} key `{name}` has no "
                f"row in the {heading[3:]!r} table"
                for name in sorted(registered - documented[heading])
            )
    except Exception as exc:  # pragma: no cover - import environment issues
        return [f"docs/policies.md: cannot import the policy registries ({exc})"]
    finally:
        sys.path.pop(0)
    return errors


#: The one top-level key set of a ``BENCH_*.json`` (and of a section that a
#: separate command produced, recognisable by its own ``gates``).
ARTIFACT_KEYS = ("benchmark", "machine", "metadata", "config", "gates", "cells", "sections")


def validate_artifact(block: object, where: str) -> List[str]:
    """Shape errors of one artifact (or separately-run section), recursively."""
    if not isinstance(block, dict):
        return [f"{where}: not a JSON object"]
    errors = [f"{where}: missing key `{key}`" for key in ARTIFACT_KEYS if key not in block]
    errors.extend(
        f"{where}: unexpected top-level key `{key}` (named data belongs under `sections`)"
        for key in sorted(set(block) - set(ARTIFACT_KEYS))
    )
    for name, gate in block.get("gates", {}).items():
        ok = (
            isinstance(gate, dict)
            and isinstance(gate.get("ok"), bool)
            and isinstance(gate.get("enforced"), bool)
            and isinstance(gate.get("reason"), str)
        )
        if not ok:
            errors.append(f"{where}: gate `{name}` needs boolean ok/enforced and a reason string")
    for name, cell in block.get("cells", {}).items():
        legs = cell.get("legs") if isinstance(cell, dict) else None
        parity = cell.get("parity") if isinstance(cell, dict) else None
        if not (isinstance(legs, dict) and legs):
            errors.append(f"{where}: cell `{name}` has no `legs`")
        if not (isinstance(parity, dict) and isinstance(parity.get("identical"), bool)):
            errors.append(f"{where}: cell `{name}` has no `parity` block")
    for name, section in block.get("sections", {}).items():
        if isinstance(section, dict) and "gates" in section:
            errors.extend(validate_artifact(section, f"{where}#sections.{name}"))
    return errors


def check_bench_artifacts() -> List[str]:
    """Every checked-in ``BENCH_*.json`` parses and has the one shape."""
    errors: List[str] = []
    for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
        try:
            block = json.loads(path.read_text())
        except ValueError as exc:
            errors.append(f"{path.name}: not valid JSON ({exc})")
            continue
        errors.extend(validate_artifact(block, path.name))
    return errors


def main() -> int:
    files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    missing = [f for f in files if not f.exists()]
    errors: List[str] = [
        f"missing documentation file: {f.relative_to(REPO_ROOT)}" for f in missing
    ]
    for md_path in files:
        if md_path.exists():
            errors.extend(check_file(md_path))
    errors.extend(check_lint_rule_ids())
    errors.extend(check_policy_names())
    errors.extend(check_bench_artifacts())
    if errors:
        print(f"check_docs: {len(errors)} broken reference(s)", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        # Exit status = number of broken references (saturated so a huge
        # count cannot wrap to 0 through the 8-bit exit-code space).
        return min(len(errors), 125)
    checked = ", ".join(str(f.relative_to(REPO_ROOT)) for f in files)
    print(f"check_docs: OK ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
