"""Lint engine: path gathering, the facts pass, and rule execution.

Two passes.  Pass one parses every target and folds it into one
:class:`~repro.lint.facts.ProjectFacts` (the cross-file tables DET003
and DET004 read).  Pass two runs every rule on each file against those
facts and drops the findings the file's own suppressions silence.
"""

from __future__ import annotations

import ast
import os
from typing import Sequence

from repro.lint.facts import ProjectFacts, attach_parents
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules
from repro.lint.suppressions import parse_suppressions


def gather_paths(paths: Sequence[str]) -> list[str]:
    """Expand the CLI's path arguments into a sorted list of files.

    Directories are walked for ``*.py`` (skipping ``__pycache__`` and
    hidden directories); explicitly named files are linted regardless of
    extension, which is how the test suite lints ``.pytxt`` fixtures
    without the fixtures tripping a directory-level run.
    """
    files: set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d != "__pycache__" and not d.startswith(".")
                )
                for filename in filenames:
                    if filename.endswith(".py"):
                        files.add(os.path.join(dirpath, filename))
        else:
            files.add(path)
    return sorted(files)


def lint_paths(
    paths: Sequence[str], rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint files/directories; returns sorted findings (empty == clean)."""
    chosen = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    parsed: list[tuple[str, str, ast.Module]] = []
    facts = ProjectFacts()
    for path in gather_paths(paths):
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(
                Finding(path=path, line=1, col=0, rule="PARSE", message=str(exc))
            )
            continue
        attach_parents(tree)
        facts.merge_from(tree, path)
        parsed.append((path, source, tree))
    for path, source, tree in parsed:
        findings.extend(_lint_tree(tree, source, path, facts, chosen))
    return sorted(findings)


def lint_source(
    source: str,
    path: str = "<string>",
    facts: ProjectFacts | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint one in-memory module (the unit-test entry point).

    ``path`` matters: rules scope themselves by path (DET001 skips
    ``telemetry``, PROTO002 skips ``tests``), so fixture tests pass a
    src-like fake path when exercising scoped rules.  Without ``facts``
    the cross-file tables hold this module alone.
    """
    chosen = list(rules) if rules is not None else all_rules()
    tree = ast.parse(source, filename=path)
    attach_parents(tree)
    if facts is None:
        facts = ProjectFacts()
        facts.merge_from(tree, path)
    return sorted(_lint_tree(tree, source, path, facts, chosen))


def _lint_tree(
    tree: ast.Module,
    source: str,
    path: str,
    facts: ProjectFacts,
    rules: Sequence[Rule],
) -> list[Finding]:
    suppressions = parse_suppressions(source)
    findings: list[Finding] = []
    for rule_obj in rules:
        if not rule_obj.applies_to(path):
            continue
        for finding in rule_obj.check(tree, source, path, facts):
            if not suppressions.is_suppressed(finding):
                findings.append(finding)
    return findings
