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
* **class attributes** -- every inline code span ``Class.attr`` (or
  ``Class.attr(...)``) whose ``Class`` is defined under ``src/`` names a
  method, a class attribute or a ``self.`` attribute of that class or of a
  base class defined there, so prose naming a deleted method breaks CI;
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
* **policy knobs** -- the "Knobs" cell of each scheduling, placement and
  admission row opens with exactly the constructor parameters of the class
  its registry entry builds (a ``functools.partial`` unwrapped to its
  class), backticked and comma-separated, or with ``–`` if it takes none,
  so a knob is documented exactly while a constructor accepts it;
* **constructor parameters** -- every defaulted parameter of the engine,
  runtime and federation constructors in ``CONSTRUCTORS`` has exactly one
  row ``| `Class(param)` | set by | ... |`` in a "Parameter | Set by" table
  of ``docs/architecture.md``, ``runtime.md``, ``federation.md`` or
  ``robustness.md``, every row names such a parameter, and every "Set by"
  cell names at least one run that sets it: a ``RunSpec`` field
  (``RunSpec.<field>``), a figure (``FIGURES["<name>"]``), a
  ``BENCHMARK.json`` workload, a ``python -m repro.<module>`` command, or a
  test (``tests/<file>.py::<name>``) -- so a value no run sets is a module
  constant, not a knob;
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

import ast
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

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
#: Inline code spans naming a class attribute: ``Class.attr`` or ``Class.attr(...)``.
ATTRIBUTE_SPAN_RE = re.compile(r"^([A-Z]\w*)\.([A-Za-z_]\w*)(?:\(.*\))?$")
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


def _base_names(node: ast.ClassDef) -> Iterable[str]:
    for base in node.bases:
        if isinstance(base, ast.Subscript):  # Generic[T] and the like
            base = base.value
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def src_class_attributes(src: Path = REPO_ROOT / "src") -> Dict[str, Set[str]]:
    """Class name -> every attribute a class of that name under ``src`` has.

    An attribute is a method or nested class, a name assigned in the class
    body, or a ``self.<name>`` store anywhere inside the class, including
    those of its base classes defined under ``src``.  Classes sharing a name
    share one set.
    """
    own: Dict[str, Set[str]] = {}
    bases: Dict[str, Set[str]] = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            attrs = own.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    attrs.add(item.name)
                elif isinstance(item, ast.Assign):
                    attrs.update(t.id for t in item.targets if isinstance(t, ast.Name))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    attrs.add(item.target.id)
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    attrs.add(sub.attr)
            bases.setdefault(node.name, set()).update(_base_names(node))

    def inherited(name: str, seen: Set[str]) -> Set[str]:
        if name in seen or name not in own:
            return set()
        seen.add(name)
        attrs = set(own[name])
        for base in bases[name]:
            attrs |= inherited(base, seen)
        return attrs

    return {name: inherited(name, set()) for name in own}


def check_attribute_refs(text: str, where: str, classes: Dict[str, Set[str]]) -> List[str]:
    """Stale ``Class.attr`` code spans in ``text`` (fenced blocks already stripped)."""
    errors: List[str] = []
    for match in CODE_SPAN_RE.finditer(text):
        ref = ATTRIBUTE_SPAN_RE.match(match.group(1).strip())
        if ref is None or ref.group(1) not in classes:
            continue
        cls, attr = ref.groups()
        if attr not in classes[cls]:
            errors.append(
                f"{where}: stale attribute reference `{cls}.{attr}` "
                f"({cls}, defined under src/, has no attribute {attr!r})"
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
#: The registries whose tables carry a "Knobs" column checked against the
#: constructor of each registered class.
KNOB_REGISTRIES = ("SCHEDULING_POLICIES", "PLACEMENT_POLICIES", "ADMISSION_POLICIES")
#: What a Knobs cell opens with when the class takes no parameter.
NO_KNOBS = "–"


def table_cells(line: str) -> List[str]:
    """The stripped cells of a markdown table row."""
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def constructor_parameters(factory) -> List[str]:
    """The constructor parameters of the class a registry factory builds."""
    import functools
    import inspect

    while isinstance(factory, functools.partial):
        factory = factory.func
    return list(inspect.signature(factory).parameters)


def knob_cell_error(cell: str, parameters: List[str]) -> str:
    """Why a Knobs cell does not open with ``parameters`` ('' if it does)."""
    expected = ", ".join(f"`{name}`" for name in parameters) or NO_KNOBS
    rest = cell[len(expected):]
    if not cell.startswith(expected) or re.match(r"\s*,?\s*`\w+`", rest):
        return f"must open with {expected}, found {cell!r}"
    return ""


def check_policy_names() -> List[str]:
    """docs/policies.md "Name" and "Knobs" columns and the policy registries agree."""
    import importlib

    doc = REPO_ROOT / "docs" / "policies.md"
    if not doc.exists():
        return ["missing documentation file: docs/policies.md"]
    documented: Dict[str, set] = {heading: set() for heading in POLICY_REGISTRIES}
    #: (heading, name) -> the row's Knobs cell, for tables that have one.
    knobs: Dict[Tuple[str, str], str] = {}
    section = None
    knob_column = None
    for line in doc.read_text().splitlines():
        if line.startswith("## "):
            section = next((h for h in POLICY_REGISTRIES if line.startswith(h)), None)
            knob_column = None
        if line.startswith("| Name |"):
            header = table_cells(line)
            knob_column = header.index("Knobs") if "Knobs" in header else None
        match = NAME_CELL_RE.match(line)
        if section is not None and match:
            documented[section].add(match.group(1))
            cells = table_cells(line)
            if knob_column is not None and knob_column < len(cells):
                knobs[section, match.group(1)] = cells[knob_column]
    errors: List[str] = []
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        for heading, (module, attribute) in POLICY_REGISTRIES.items():
            registry = getattr(importlib.import_module(module), attribute)
            registered = set(registry)
            if attribute in KNOB_REGISTRIES:
                for name in sorted(registered & documented[heading]):
                    cell = knobs.get((heading, name), "")
                    error = knob_cell_error(cell, constructor_parameters(registry[name]))
                    if error:
                        errors.append(
                            f"docs/policies.md: {heading[3:]!r} row `{name}`: the Knobs "
                            f"cell {error} (the constructor parameters of what "
                            f"{attribute}[{name!r}] builds)"
                        )
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


#: Name -> defining module of the engine, runtime and federation constructors
#: whose defaulted parameters the docs' parameter tables cover.
CONSTRUCTORS = {
    "Simulator": "repro.simulator.engine",
    "CentralScheduler": "repro.runtime.central_scheduler",
    "BloxManager": "repro.core.blox_manager",
    "ExecutionModel": "repro.simulator.execution",
    "OverheadModel": "repro.simulator.overheads",
    "ClusterOverheadModel": "repro.simulator.overheads",
    "InMemoryRpcChannel": "repro.runtime.rpc",
    "RetryPolicy": "repro.runtime.rpc",
    "FaultPlan": "repro.runtime.rpc",
    "WorkerManager": "repro.runtime.worker_manager",
    "WorkerPoolBackend": "repro.federation.parallel",
    "SupervisorConfig": "repro.federation.parallel",
    "FederationEngine": "repro.federation.engine",
    "build_cluster": "repro.cluster.builder",
}
#: The docs whose "Parameter | Set by" tables document ``CONSTRUCTORS``.
KNOB_DOCS = ("architecture.md", "runtime.md", "federation.md", "robustness.md")
#: A parameter row: ``| `Class(param)` | set by | ...``.
PARAMETER_ROW_RE = re.compile(r"^\|\s*`(\w+)\((\w+)\)`\s*\|([^|]*)\|")
#: The references a "Set by" cell may name.
SETTER_RES = {
    "spec": re.compile(r"^RunSpec\.(\w+)$"),
    "figure": re.compile(r'^FIGURES\["(\w+)"\]$'),
    "command": re.compile(r"^python -m (repro(?:\.\w+)+)(?: .*)?$"),
    "test": re.compile(r"^((?:tests|benchmarks)/[\w/]+\.py)((?:::\w+)+)$"),
}


def defaulted_parameters(constructor) -> List[str]:
    """The parameters of ``constructor`` a caller may leave out."""
    import inspect

    return [
        name
        for name, parameter in inspect.signature(constructor).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    ]


def parameter_rows(docs: Dict[str, str]) -> Tuple[Dict[Tuple[str, str], Tuple[str, str]], List[str]]:
    """``(class, param) -> (doc, Set-by cell)`` from the docs' parameter tables,
    plus one error per duplicated row."""
    rows: Dict[Tuple[str, str], Tuple[str, str]] = {}
    errors: List[str] = []
    for doc, text in docs.items():
        in_table = False
        for line in strip_code_blocks(text).splitlines():
            if line.startswith("| Parameter | Set by |"):
                in_table = True
                continue
            if not line.startswith("|"):
                in_table = False
            match = PARAMETER_ROW_RE.match(line) if in_table else None
            if match is None:
                continue
            key = (match.group(1), match.group(2))
            if key in rows:
                errors.append(f"{doc}: `{key[0]}({key[1]})` is documented twice")
            rows[key] = (doc, match.group(3).strip())
    return rows, errors


def setter_error(reference: str, known: Dict[str, Set[str]]) -> Optional[str]:
    """Why a code span of a "Set by" cell names no run ('' if it names one;
    ``None`` if it is not a setter reference at all)."""
    if reference in known["workloads"]:
        return ""
    for kind, pattern in SETTER_RES.items():
        match = pattern.match(reference)
        if match is None:
            continue
        if kind == "spec":
            return "" if match.group(1) in known["spec"] else "no such RunSpec field"
        if kind == "figure":
            return "" if match.group(1) in known["figures"] else "no such figure"
        if kind == "command":
            base = REPO_ROOT / "src" / Path(*match.group(1).split("."))
            runnable = (base / "__main__.py").exists() or base.with_suffix(".py").exists()
            return "" if runnable else "no such runnable module"
        path = REPO_ROOT / match.group(1)
        if not path.exists():
            return "no such test file"
        source = path.read_text()
        for name in match.group(2).split("::")[1:]:
            if not re.search(rf"^\s*(?:def|class) {name}\b", source, re.M):
                return f"{match.group(1)} defines no {name}"
        return ""
    return None


def check_constructor_knobs(
    docs: Optional[Dict[str, str]] = None,
    constructors: Optional[Dict[str, object]] = None,
) -> List[str]:
    """The parameter tables and the constructors' defaulted parameters agree,
    and every row names a run that sets its parameter."""
    import dataclasses
    import importlib

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        if docs is None:
            docs = {name: (REPO_ROOT / "docs" / name).read_text() for name in KNOB_DOCS}
        if constructors is None:
            constructors = {
                name: getattr(importlib.import_module(module), name)
                for name, module in CONSTRUCTORS.items()
            }
        from repro.experiments.figures import FIGURES
        from repro.telemetry.runspec import RunSpec
    except Exception as exc:  # pragma: no cover - import environment issues
        return [f"docs: cannot import the documented constructors ({exc})"]
    finally:
        sys.path.pop(0)
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    known = {
        "spec": {f.name for f in dataclasses.fields(RunSpec)},
        "figures": set(FIGURES),
        "workloads": {w["name"] for w in benchmark["workloads"]},
    }
    rows, errors = parameter_rows(docs)
    expected = {
        (name, parameter)
        for name, constructor in constructors.items()
        for parameter in defaulted_parameters(constructor)
    }
    errors.extend(
        f"docs: `{name}({parameter})` has no row in a Parameter | Set by table of "
        f"{', '.join(KNOB_DOCS)} (a value no run sets is a module constant)"
        for name, parameter in sorted(expected - set(rows))
    )
    for (name, parameter), (doc, cell) in sorted(rows.items()):
        if (name, parameter) not in expected:
            errors.append(
                f"{doc}: `{name}({parameter})` is not a defaulted parameter of a "
                "documented constructor"
            )
            continue
        verdicts = [
            (span, setter_error(span, known)) for span in CODE_SPAN_RE.findall(cell)
        ]
        errors.extend(
            f"{doc}: `{name}({parameter})` Set by `{span}`: {error}"
            for span, error in verdicts
            if error
        )
        if not any(error == "" for _, error in verdicts):
            errors.append(
                f"{doc}: `{name}({parameter})` names no run that sets it (a RunSpec "
                "field, a figure, a benchmark workload, a command or a test)"
            )
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
    classes = src_class_attributes()
    for md_path in files:
        if md_path.exists():
            errors.extend(check_file(md_path))
            errors.extend(
                check_attribute_refs(
                    strip_code_blocks(md_path.read_text()),
                    str(md_path.relative_to(REPO_ROOT)),
                    classes,
                )
            )
    errors.extend(check_lint_rule_ids())
    errors.extend(check_policy_names())
    errors.extend(check_constructor_knobs())
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
