"""(C) Policy-contract conformance rules (cross-module pass).

The simulator's event-skipping fast-forward trusts three class-level flags
(``supports_fast_forward`` / ``steady_state_safe`` /
``next_policy_event_time`` -- see ``docs/architecture.md``): a
mis-declaration does not crash, it silently skips rounds the policy needed
and corrupts the schedule.  These rules resolve the policy registry
statically -- every class subclassing one of the policy bases under the
policy packages -- and check the declarations are explicit (C101), honest
(C102), and documented (C103).

Collection happens during the per-file pass (:class:`ContractCollector`
appends one :class:`PolicyClassFact` per policy class); the checks run in
``finalize`` once the whole registry has been seen.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.core import Finding, FileContext, ProjectState, Rule
from repro.analysis.manifest import OTHER_POLICY_BASES, SCHEDULING_POLICY_BASES

#: Methods whose bodies C102 scans for per-round mutation.
DECISION_METHODS = ("schedule", "accept", "place", "should_terminate", "route")


@dataclass(frozen=True)
class PolicyClassFact:
    """Everything the finalize checks need to know about one policy class."""

    rel: str
    line: int
    name: str
    module: str
    #: Last components of the base names ("SchedulingPolicy", ...).
    bases: Tuple[str, ...]
    declares_next_event: bool
    declares_supports_ff: bool
    declares_steady_safe: bool
    steady_safe_true: bool
    #: ``(method, line, "self.attr")`` for each direct self-mutation inside a
    #: decision method body.
    decision_mutations: Tuple[Tuple[str, int, str], ...] = ()

    @property
    def is_scheduling(self) -> bool:
        return any(b in SCHEDULING_POLICY_BASES for b in self.bases)

    @property
    def is_router(self) -> bool:
        return "Router" in self.bases


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    names: List[str] = []
    for base in node.bases:
        while isinstance(base, ast.Subscript):  # Generic[...] style
            base = base.value
        if isinstance(base, ast.Attribute):
            names.append(base.attr)
        elif isinstance(base, ast.Name):
            names.append(base.id)
    return tuple(names)


def _class_flag(node: ast.ClassDef, flag: str) -> Tuple[bool, Optional[bool]]:
    """(declared, constant value if literal True/False) for a class-body flag."""
    for stmt in node.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == flag:
                if isinstance(value, ast.Constant) and isinstance(value.value, bool):
                    return True, value.value
                return True, None
    return False, None


def _decision_mutations(node: ast.ClassDef) -> Tuple[Tuple[str, int, str], ...]:
    """Direct ``self.x = / self.x[k] = / self.x += / del self.x`` writes
    inside decision-method bodies (helper methods are out of scope -- see
    the C102 docstring for the limitation)."""
    out: List[Tuple[str, int, str]] = []
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name not in DECISION_METHODS:
            continue
        for sub in ast.walk(stmt):
            targets: List[ast.expr] = []
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            elif isinstance(sub, ast.Delete):
                targets = sub.targets
            for target in targets:
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    out.append((stmt.name, sub.lineno, f"self.{base.attr}"))
    return tuple(out)


class ContractCollector(Rule):
    """C101 + the shared fact collector.

    C101: every scheduling policy in the registry must *explicitly* declare
    its fast-forward contract -- define ``next_policy_event_time``, or
    assign ``supports_fast_forward`` / ``steady_state_safe`` in the class
    body.  Inheriting the base defaults silently is how a policy ends up
    fast-forwarded under the wrong assumptions; the declaration is the
    audit trail.
    """

    rule_id = "C101"
    description = (
        "scheduling policy does not explicitly declare its fast-forward "
        "contract (next_policy_event_time / supports_fast_forward / "
        "steady_state_safe)"
    )
    hint = (
        "declare the audited contract explicitly in the class body, e.g. "
        "`steady_state_safe = False`"
    )

    def visit_ClassDef(self, ctx: FileContext, node: ast.ClassDef) -> None:
        if ctx.module is None:
            return
        bases = _base_names(node)
        known = SCHEDULING_POLICY_BASES | OTHER_POLICY_BASES
        if not any(b in known for b in bases):
            return
        in_policy_pkg = ctx.manifest.is_policy_module(ctx.module)
        if not in_policy_pkg and "Router" not in bases:
            return
        method_names = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        declares_sff, _ = _class_flag(node, "supports_fast_forward")
        declares_sss, sss_value = _class_flag(node, "steady_state_safe")
        ctx.project.policy_classes.append(
            PolicyClassFact(
                rel=ctx.rel,
                line=node.lineno,
                name=node.name,
                module=ctx.module,
                bases=bases,
                declares_next_event="next_policy_event_time" in method_names,
                declares_supports_ff=declares_sff,
                declares_steady_safe=declares_sss,
                steady_safe_true=bool(sss_value),
                decision_mutations=_decision_mutations(node),
            )
        )

    def finalize(self, project: ProjectState) -> List[Finding]:
        findings: List[Finding] = []
        for fact in project.policy_classes:
            if not fact.is_scheduling:
                continue
            if fact.name.startswith("_"):
                continue
            if (
                fact.declares_next_event
                or fact.declares_supports_ff
                or fact.declares_steady_safe
            ):
                continue
            findings.append(
                Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=fact.rel,
                    line=fact.line,
                    col=1,
                    message=(
                        f"scheduling policy `{fact.name}` inherits the "
                        "fast-forward contract implicitly; declare it"
                    ),
                    hint=self.hint,
                )
            )
        return findings


class SteadyStateMutationRule(Rule):
    """C102: ``steady_state_safe = True`` must mean what it says.

    A steady-state-safe policy promises its decisions are reproducible from
    the visible state, so the engine may skip invoking it across steady
    strides.  Direct ``self.*`` writes inside its decision methods are
    per-round mutable captures that break that promise.  Known limitation:
    only *direct* assignments in the decision-method body are seen --
    mutation routed through helper methods (the audited memo-refresh idiom
    in gavel/tiresias) is trusted.
    """

    rule_id = "C102"
    description = (
        "steady_state_safe=True policy mutates self inside a decision "
        "method (per-round mutable capture)"
    )
    hint = (
        "drop the flag, or move the state behind an observer/index that "
        "updates on events rather than per decision"
    )

    def finalize(self, project: ProjectState) -> List[Finding]:
        findings: List[Finding] = []
        for fact in project.policy_classes:
            if not fact.steady_safe_true:
                continue
            for method, line, attr in fact.decision_mutations:
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        severity=self.severity,
                        path=fact.rel,
                        line=line,
                        col=1,
                        message=(
                            f"`{fact.name}.{method}` assigns `{attr}` while "
                            "declaring steady_state_safe=True"
                        ),
                        hint=self.hint,
                    )
                )
        return findings


class PolicyDocRule(Rule):
    """C103: every registered policy appears in ``docs/policies.md``.

    The policy reference is the contract users pick policies by; a policy
    missing from it is unreviewable.  Scope: concrete classes under the
    manifest's policy packages (``repro.policies``, ``repro.synthesizer``)
    plus federation routers.  Skipped silently when the
    doc file is absent (linting a fixture tree) -- the CLI always runs from
    the repo root where it exists.
    """

    rule_id = "C103"
    description = "registered policy class is missing from docs/policies.md"
    hint = "add a row for the class to docs/policies.md"

    def finalize(self, project: ProjectState) -> List[Finding]:
        doc_path = project.root / project.manifest.policy_doc_path
        try:
            doc_text = doc_path.read_text(encoding="utf-8")
        except OSError:
            return []
        findings: List[Finding] = []
        for fact in project.policy_classes:
            if fact.name.startswith("_"):
                continue
            in_scope = fact.is_router or fact.module.startswith(
                project.manifest.policy_package_prefixes
            )
            if not in_scope:
                continue
            if fact.name in doc_text:
                continue
            findings.append(
                Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=fact.rel,
                    line=fact.line,
                    col=1,
                    message=(
                        f"policy class `{fact.name}` is not documented in "
                        f"{project.manifest.policy_doc_path}"
                    ),
                    hint=self.hint,
                )
            )
        return findings


CONTRACT_RULES = (ContractCollector, SteadyStateMutationRule, PolicyDocRule)
