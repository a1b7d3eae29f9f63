"""Protocol-invariant rules: PROTO001 (payload registration), PROTO002
(trace-kind declaration) and PROTO004 (``body_bytes`` priced from the
``SizeModel``).

PROTO001 and PROTO002 are the static halves of two runtime registries:
the wire codec (:mod:`repro.net.codec`) and the trace-kind table
(:mod:`repro.telemetry.kinds`).  The registries catch violations at
runtime *if the offending path executes*; these rules catch them at
review time whether or not any test exercises the path.  PROTO004 has
no runtime twin: a hard-coded wire size runs fine and is simply wrong.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.facts import ProjectFacts, dotted_name, is_test_path
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule


def _decorator_names(node: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


@rule
class PayloadRegistrationRule(Rule):
    """PROTO001: Payload subclasses must be complete and wire-registered.

    A ``Payload`` subclass that is missing ``@register_payload`` never
    reaches the codec's duplicate/size validation; one missing
    ``body_bytes`` silently inherits a parent's size model and skews the
    paper's byte-cost curves.  Each missing aspect is reported
    separately so the fix list is explicit.
    """

    id = "PROTO001"
    summary = "Payload subclass missing codec registration, body_bytes, or category"

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name == "Payload":
                continue
            base_names = set()
            for base in node.bases:
                if isinstance(base, ast.Name):
                    base_names.add(base.id)
                elif isinstance(base, ast.Attribute):
                    base_names.add(base.attr)
            if "Payload" not in base_names:
                continue
            has_body_bytes = False
            has_category = False
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name == "body_bytes":
                        has_body_bytes = True
                    elif item.name == "category":
                        has_category = True
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    if item.target.id == "category":
                        has_category = True
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name) and target.id == "category":
                            has_category = True
            if "register_payload" not in _decorator_names(node):
                yield self.finding(
                    path,
                    node,
                    f"Payload subclass {node.name} is not decorated with "
                    "@register_payload; the wire codec cannot account for it",
                )
            if not has_body_bytes:
                yield self.finding(
                    path,
                    node,
                    f"Payload subclass {node.name} does not define body_bytes(); "
                    "its wire size would silently fall back to the parent's",
                )
            if not has_category:
                yield self.finding(
                    path,
                    node,
                    f"Payload subclass {node.name} does not declare a category; "
                    "cost accounting cannot attribute its traffic",
                )


@rule
class TraceKindRule(Rule):
    """PROTO002: every telemetry emit/span kind is declared in the registry.

    Trace consumers (the run-report CLI, the replay gate) key on the
    ``kind`` field.  An undeclared kind is either a typo or a new event
    type that dashboards and docs do not know about yet — both should be
    caught before the trace ships.  Tests are exempt: they emit ad-hoc
    kinds on purpose.
    """

    id = "PROTO002"
    summary = "telemetry emit()/span() kind not declared in repro.telemetry.kinds"

    def applies_to(self, path: str) -> bool:
        return not is_test_path(path)

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        try:
            from repro.telemetry.kinds import TRACE_KINDS
        except ImportError:  # pragma: no cover - linting outside the repo
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in (
                "emit",
                "span",
            ):
                continue
            kind = self._literal_kind(node)
            if kind is None:
                continue
            if kind not in TRACE_KINDS:
                yield self.finding(
                    path,
                    node,
                    f"trace kind {kind!r} is not declared in "
                    "repro.telemetry.kinds.TRACE_KINDS; declare it (with a "
                    "description) or fix the typo",
                )

    @staticmethod
    def _literal_kind(node: ast.Call) -> str | None:
        """The kind argument, when it is a string literal.

        ``Telemetry.emit(kind, ...)`` and ``Telemetry.span(kind)`` take the
        kind first; the lower-level ``Tracer.emit(time, kind, ...)`` takes
        it second.  Non-literal kinds are out of static reach and skipped.
        """
        for arg in node.args[:2]:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
        return None


def _is_abstract(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Decorated ``@abstractmethod``, or a body that raises."""
    for decorator in func.decorator_list:
        name = dotted_name(decorator)
        if name is not None and name.rsplit(".", 1)[-1] == "abstractmethod":
            return True
    return any(isinstance(node, ast.Raise) for node in ast.walk(func))


@rule
class ModelPricedBodyRule(Rule):
    """PROTO004: a ``body_bytes`` that never reads its ``SizeModel``.

    Every payload prices its body from the ``SizeModel`` it is handed
    (§IV's cost per category is a function of the model's field
    widths).  A ``body_bytes`` that returns a hard-coded size runs, and
    no test notices, but it stops following size-model sweeps.  Abstract
    methods and bodies that raise are exempt.
    """

    id = "PROTO004"
    summary = "body_bytes() never reads its SizeModel parameter"

    def applies_to(self, path: str) -> bool:
        return not is_test_path(path)

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not (
                    isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and func.name == "body_bytes"
                ):
                    continue
                positional = [*func.args.posonlyargs, *func.args.args]
                if len(positional) < 2 or _is_abstract(func):
                    continue
                model = positional[1].arg
                if any(
                    isinstance(node, ast.Name)
                    and node.id == model
                    and isinstance(node.ctx, ast.Load)
                    for node in ast.walk(func)
                ):
                    continue
                yield self.finding(
                    path,
                    func,
                    f"body_bytes() of {cls.name} never reads its SizeModel "
                    "parameter: the wire size is hard-coded and will not "
                    "follow size-model changes, skewing the byte-cost "
                    "curves (Section IV)",
                )
