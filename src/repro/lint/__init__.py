"""Determinism & protocol-invariant static analysis.

Run as ``python -m repro.lint src tests`` (or the ``repro-lint``
console script).  Rules are documented in ``docs/LINT_RULES.md``;
suppress a single finding with ``# repro-lint: disable=RULEID``.

Every rule subclasses :class:`Rule` and runs per file, against the
:class:`ProjectFacts` the engine gathers from every linted file first.
"""

from repro.lint.engine import gather_paths, lint_paths, lint_source
from repro.lint.facts import ProjectFacts, attach_parents
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, known_rule_ids, rule
from repro.lint.sarif import render_sarif
from repro.lint.suppressions import Suppressions, parse_suppressions

__all__ = [
    "Finding",
    "ProjectFacts",
    "Rule",
    "Suppressions",
    "all_rules",
    "attach_parents",
    "gather_paths",
    "known_rule_ids",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "render_sarif",
    "rule",
]
