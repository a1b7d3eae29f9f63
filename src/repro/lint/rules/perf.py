"""Performance rules: PERF001 (unguarded telemetry payload construction)
and PERF002 (per-element python loops in the vectorized tier).

The telemetry fast path (docs/PERFORMANCE.md) makes a disabled
``trace.emit(...)`` cost one predicate — but only if the *arguments* are
also free.  A dict literal, list literal, or f-string built at the call
site is paid before ``emit`` can decline it, so hot-path emits must hide
payload construction behind ``if trace.active:``.

The vectorized tier (``src/repro/vec``) exists to replace per-peer python
work with array programs; one ``for`` statement over a million-element
array silently reintroduces the scalar ceiling.  PERF002 keeps that tier
honest.  Bounded control loops (multi-argument ``range`` over tree
levels) pass; the dense↔sparse escape hatch iterates legitimately and
says so with an explicit ``# repro-lint: disable=PERF002``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.facts import ProjectFacts, dotted_name, is_test_path, path_parts
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule


def _is_trace_emit(node: ast.Call) -> bool:
    """``trace.emit(...)`` / ``sim.trace.emit(...)`` / ``self._sim.trace.emit(...)``."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return False
    parts = dotted.split(".")
    return len(parts) >= 2 and parts[-1] == "emit" and "trace" in parts[:-1]


def _expensive_kind(node: ast.expr) -> str | None:
    """A constant-cost description if building ``node`` allocates."""
    if isinstance(node, ast.Dict):
        return "dict literal"
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list literal"
    if isinstance(node, ast.DictComp):
        return "dict comprehension"
    if isinstance(node, ast.JoinedStr) and any(
        isinstance(part, ast.FormattedValue) for part in node.values
    ):
        return "f-string"
    return None


def _guard_tests_active(test: ast.expr) -> bool:
    """Whether an ``if`` test reads ``<...>trace.active`` (or ``.active``
    on any name ending in ``trace``/``tracer``)."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "active":
            owner = dotted_name(node.value)
            if owner is not None and owner.split(".")[-1] in ("trace", "tracer"):
                return True
    return False


def _is_guarded(node: ast.Call) -> bool:
    current = getattr(node, "parent", None)
    while current is not None:
        if isinstance(current, ast.If) and _guard_tests_active(current.test):
            return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False  # a guard outside the enclosing function never helps
        current = getattr(current, "parent", None)
    return False


@rule
class UnguardedTracePayloadRule(Rule):
    """PERF001: allocating payloads for a possibly-disabled trace emit.

    ``trace.emit(...)`` with telemetry off costs one predicate — unless a
    dict/list literal, comprehension, or f-string argument is built
    first, which Python evaluates *before* the call can bail out.  Either
    pass scalars (``emit`` only formats when a sink is attached) or wrap
    the whole emit in ``if trace.active:``.
    """

    id = "PERF001"
    summary = "dict/list/f-string built for trace.emit() without an `if trace.active` guard"

    def applies_to(self, path: str) -> bool:
        # Hot-path discipline is for library code; tests trade a few
        # allocations for readable assertions.
        return not is_test_path(path)

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not _is_trace_emit(node):
                continue
            if _is_guarded(node):
                continue
            values = list(node.args) + [keyword.value for keyword in node.keywords]
            for value in values:
                kind = _expensive_kind(value)
                if kind is not None:
                    yield self.finding(
                        path,
                        value,
                        f"{kind} built unconditionally for trace.emit(); guard "
                        "the emit with `if trace.active:` so disabled telemetry "
                        "costs one predicate (docs/PERFORMANCE.md)",
                    )


def _is_numpy_call(node: ast.expr) -> bool:
    """``np.anything(...)`` / ``numpy.lib.anything(...)``."""
    if not isinstance(node, ast.Call):
        return False
    dotted = dotted_name(node.func)
    return dotted is not None and dotted.split(".")[0] in ("np", "numpy")


def _is_ndarray_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    dotted = dotted_name(annotation)
    return dotted in ("np.ndarray", "numpy.ndarray", "ndarray")


def _array_names(tree: ast.Module) -> set[str]:
    """Names bound to numpy arrays: assigned from an ``np.*`` call, or
    annotated ``np.ndarray`` (assignments and function parameters)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_numpy_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and (
                _is_ndarray_annotation(node.annotation)
                or (node.value is not None and _is_numpy_call(node.value))
            ):
                names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in node.args.args + node.args.kwonlyargs + node.args.posonlyargs:
                if _is_ndarray_annotation(arg.annotation):
                    names.add(arg.arg)
    return names


def _elementwise_range(node: ast.Call, arrays: set[str]) -> bool:
    """``range(len(a))`` / ``range(a.size)`` / ``range(a.shape[0])`` for a
    known array ``a`` — single-argument only; bounded multi-argument
    ranges (level sweeps over tree depth) are legitimate control loops."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "range"):
        return False
    if len(node.args) != 1:
        return False
    arg = node.args[0]
    if (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Name)
        and arg.func.id == "len"
        and len(arg.args) == 1
        and isinstance(arg.args[0], ast.Name)
    ):
        return arg.args[0].id in arrays
    if isinstance(arg, ast.Attribute) and arg.attr == "size":
        owner = arg.value
        return isinstance(owner, ast.Name) and owner.id in arrays
    if (
        isinstance(arg, ast.Subscript)
        and isinstance(arg.value, ast.Attribute)
        and arg.value.attr == "shape"
        and isinstance(arg.value.value, ast.Name)
    ):
        return arg.value.value.id in arrays
    return False


@rule
class ScalarLoopInVectorTierRule(Rule):
    """PERF002: a per-element python ``for`` loop over a numpy array
    inside the vectorized tier.

    ``src/repro/vec`` holds the code whose whole contract is batch array
    execution; a statement loop that touches each element from python
    undoes that contract for the full population size.  Replace it with
    the equivalent array program (``np.add.at``, ``np.repeat``-based flat
    gathers, boolean masks), or — at the dense↔sparse escape boundary,
    where per-peer object construction is the point — acknowledge the
    iteration with ``# repro-lint: disable=PERF002``.
    """

    id = "PERF002"
    summary = "per-element python loop over a numpy array in src/repro/vec"

    def applies_to(self, path: str) -> bool:
        return "vec" in path_parts(path) and not is_test_path(path)

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        arrays = _array_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.For):
                continue
            iterator = node.iter
            if isinstance(iterator, ast.Name) and iterator.id in arrays:
                yield self.finding(
                    path,
                    node,
                    f"python for-loop over numpy array `{iterator.id}`; "
                    "replace per-element iteration with a batch array op "
                    "(this tier's contract) or disable at an escape boundary",
                )
            elif isinstance(iterator, ast.Call) and _elementwise_range(
                iterator, arrays
            ):
                yield self.finding(
                    path,
                    node,
                    "python for-loop over every index of a numpy array; "
                    "replace per-element iteration with a batch array op "
                    "(this tier's contract) or disable at an escape boundary",
                )
            elif _is_numpy_call(iterator):
                yield self.finding(
                    path,
                    node,
                    "python for-loop directly over a numpy call result; "
                    "replace per-element iteration with a batch array op "
                    "(this tier's contract) or disable at an escape boundary",
                )
