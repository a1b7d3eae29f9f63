"""The rule registry.

A rule is a class with an ``id``, a one-line ``summary``, an optional
path predicate, and a ``check`` generator over one module's AST.  Rules
self-register via the :func:`rule` decorator, so adding a rule in a
future PR is: write the class in one module under ``repro.lint.rules``
(or any module imported from there), decorate it, done — the engine,
CLI, ``--list-rules`` output and suppression machinery pick it up
automatically.
"""

from __future__ import annotations

import ast
from typing import Iterator, TypeVar

from repro.lint.facts import ProjectFacts
from repro.lint.findings import Finding


class Rule:
    """Base class for lint rules.

    Attributes
    ----------
    id:
        Stable identifier (``DET001``, ...) used in output and in
        ``# repro-lint: disable=...`` suppressions.
    summary:
        One-line description shown by ``--list-rules``.
    """

    id: str = ""
    summary: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on the given file at all.

        The default is everywhere.  Rules override this to scope
        themselves — e.g. the wall-clock rule exempts ``telemetry``
        (wall time *is* its subject) and the trace-kind rule exempts
        tests (tests emit ad-hoc kinds on purpose).
        """
        return True

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        """Yield findings for one parsed module."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


_RULES: dict[str, type[Rule]] = {}

R = TypeVar("R", bound=type[Rule])


def rule(cls: R) -> R:
    """Class decorator: register a rule under its ``id``."""
    if not cls.id:
        raise ValueError(f"rule class {cls.__name__} has no id")
    existing = _RULES.get(cls.id)
    if existing is not None and existing is not cls:
        raise ValueError(f"rule id {cls.id!r} is already registered")
    _RULES[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    # Import for the side effect of registering the built-in rule set.
    import repro.lint.rules  # noqa: F401

    return [_RULES[rule_id]() for rule_id in sorted(_RULES)]


def known_rule_ids() -> frozenset[str]:
    """Ids of every registered rule (for suppression validation)."""
    import repro.lint.rules  # noqa: F401

    return frozenset(_RULES)
