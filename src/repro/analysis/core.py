"""Core of the repo's AST-based invariant linter.

The framework is a *visitor pipeline*: each file is parsed **once**, every
registered rule declares the node types it cares about via ``visit_<Node>``
methods, and a single walk over the tree dispatches each node to every
interested rule.  Rules report :class:`Finding` objects through the
:class:`FileContext`; cross-module rules additionally accumulate *facts*
during the per-file pass and emit findings in a ``finalize`` step once every
file has been seen (see :mod:`repro.analysis.rules_contracts`).

Why a custom linter instead of flake8 plugins: the invariants being enforced
are repo-specific semantic contracts (bit-identical schedules, spawn-safe
picklability, policy fast-forward flags -- see ``docs/architecture.md``),
not style.  They need project knowledge (which packages are on the
simulation path, which classes cross process pipes, which functions are
hot), which lives in :mod:`repro.analysis.manifest`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.manifest import LintManifest

#: Finding severities, in gating order.  Both gate the exit code; the split
#: exists so report consumers can prioritise.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete location."""

    rule: str
    severity: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    hint: str = ""

    def render(self) -> str:
        tail = f"  (fix: {self.hint})" if self.hint else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}{tail}"

    def as_record(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


class Rule:
    """Base class for one lint rule.

    Subclasses set ``rule_id``/``description`` (and optionally ``hint`` /
    ``severity``) and implement any number of ``visit_<NodeType>`` methods,
    each called as ``visit_X(ctx, node)`` during the single tree walk.
    ``begin_file``/``end_file`` bracket each file; ``finalize`` runs once
    after all files for cross-module rules.
    """

    rule_id: str = "X000"
    severity: str = "error"
    description: str = ""
    hint: str = ""

    def begin_file(self, ctx: "FileContext") -> None:
        return None

    def end_file(self, ctx: "FileContext") -> None:
        return None

    def finalize(self, project: "ProjectState") -> List[Finding]:
        return []


@dataclass
class ProjectState:
    """Facts accumulated across files for the cross-module ``finalize`` pass.

    ``policy_classes`` is filled by the contract rules' per-file visitors;
    ``root`` is the directory lint ran from (used to resolve
    ``docs/policies.md``).
    """

    root: Path
    manifest: LintManifest
    #: One entry per policy-like class seen: see rules_contracts.PolicyClassFact.
    policy_classes: List[object] = field(default_factory=list)


class FileContext:
    """Everything rules may consult about the file being linted."""

    def __init__(
        self,
        path: Path,
        rel: str,
        source: str,
        tree: Optional[ast.AST],
        manifest: LintManifest,
        project: ProjectState,
    ) -> None:
        self.path = path
        #: Repo-relative posix path ("src/repro/simulator/engine.py").
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.manifest = manifest
        self.project = project
        #: Dotted module name for files under ``src/`` ("repro.simulator.engine"),
        #: ``None`` for anything else (tests, tools).
        self.module = manifest.module_for(rel)
        self.findings: List[Finding] = []

    # ------------------------------------------------------------------

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def in_simulation_path(self) -> bool:
        return self.manifest.is_simulation_module(self.module)

    def report(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> None:
        self.findings.append(
            Finding(
                rule=rule.rule_id,
                severity=rule.severity,
                path=self.rel,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                hint=rule.hint if hint is None else hint,
            )
        )


class SyntaxErrorRule(Rule):
    """L100: the file does not parse.  Reported by the pipeline itself."""

    rule_id = "L100"
    description = "file failed to parse; nothing else can be checked"
    hint = "fix the syntax error"


def set_parents(tree: ast.AST) -> None:
    """Attach ``_lint_parent`` backrefs so rules can inspect usage context."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._lint_parent = parent  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_lint_parent", None)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Pipeline:
    """One-parse-per-file, N-rules dispatch.

    The dispatch table maps node types to the rules whose ``visit_<Node>``
    methods want them, so adding a rule never adds another tree walk.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        self.rules: List[Rule] = list(rules)
        self._dispatch: Dict[type, List[Tuple[Rule, str]]] = {}
        for rule in self.rules:
            for attr in dir(rule):
                if not attr.startswith("visit_"):
                    continue
                node_type = getattr(ast, attr[len("visit_"):], None)
                if node_type is None or not isinstance(node_type, type):
                    continue
                self._dispatch.setdefault(node_type, []).append((rule, attr))

    def run_file(
        self,
        path: Path,
        rel: str,
        source: str,
        manifest: LintManifest,
        project: ProjectState,
    ) -> FileContext:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            ctx = FileContext(path, rel, source, None, manifest, project)
            rule = SyntaxErrorRule()
            ctx.findings.append(
                Finding(
                    rule=rule.rule_id,
                    severity=rule.severity,
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"syntax error: {exc.msg}",
                    hint=rule.hint,
                )
            )
            return ctx

        set_parents(tree)
        ctx = FileContext(path, rel, source, tree, manifest, project)
        for rule in self.rules:
            rule.begin_file(ctx)
        for node in ast.walk(tree):
            handlers = self._dispatch.get(type(node))
            if not handlers:
                continue
            for rule, attr in handlers:
                getattr(rule, attr)(ctx, node)
        for rule in self.rules:
            rule.end_file(ctx)
        return ctx

    def finalize(self, project: ProjectState) -> List[Finding]:
        findings: List[Finding] = []
        for rule in self.rules:
            findings.extend(rule.finalize(project))
        return findings
