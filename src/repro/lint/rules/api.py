"""API-hygiene rules: API001 (mutable defaults, float time equality)."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.facts import ProjectFacts, is_test_path
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule

#: Names whose values are simulated-time floats; comparing them with
#: ``==`` breaks as soon as latency models produce accumulated sums.
_TIME_NAMES = frozenset(
    {
        "now",
        "sent_at",
        "delivered_at",
        "sim_elapsed",
        "wall_elapsed",
        "elapsed_time",
        "started_at",
        "deadline",
    }
)


def _names_time(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _TIME_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_NAMES
    return False


@rule
class ApiHygieneRule(Rule):
    """API001: mutable default arguments; float equality on simulated time.

    A mutable default (``def f(x=[])``) is shared across every call — in
    a simulator that state leaks across *trials*, which is exactly the
    cross-run contamination the replay gate exists to rule out.  Exact
    ``==`` on simulated-time floats works until a latency model returns
    an accumulated sum; comparisons on time should be ordering
    (``<=``/``>=``) or explicit tolerance.
    """

    id = "API001"
    summary = "mutable default argument / float equality on simulated time"

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(path, node)
            elif isinstance(node, ast.Compare) and not is_test_path(path):
                yield from self._check_time_equality(path, node)

    def _check_defaults(
        self, path: str, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is None:
                continue
            if self._is_mutable_literal(default):
                yield self.finding(
                    path,
                    default,
                    f"mutable default argument in {node.name}(); defaults are "
                    "shared across calls — use None and construct inside",
                )

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set")
            and not node.args
            and not node.keywords
        )

    def _check_time_equality(
        self, path: str, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # `x.now == 0` style sentinel checks against int literals are
            # fine; flag comparisons where a time name meets a non-literal.
            time_side = _names_time(left) or _names_time(right)
            both_literal = isinstance(left, ast.Constant) or isinstance(
                right, ast.Constant
            )
            if time_side and not both_literal:
                yield self.finding(
                    path,
                    node,
                    "exact float equality on simulated time; use ordering "
                    "comparisons or an explicit tolerance",
                )
