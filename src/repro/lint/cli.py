"""Command-line interface: ``python -m repro.lint src tests``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint.engine import lint_paths
from repro.lint.registry import all_rules, known_rule_ids
from repro.lint.sarif import render_sarif


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism and protocol-invariant static analysis for the "
            "netFilter reproduction.  Exits 1 when findings remain."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule ids to skip (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule_obj in rules:
            print(f"{rule_obj.id}  {rule_obj.summary}")
        return 0

    disabled = {
        rule_id.strip()
        for chunk in args.disable
        for rule_id in chunk.split(",")
        if rule_id.strip()
    }
    unknown = disabled - set(known_rule_ids())
    if unknown:
        print(
            f"repro-lint: unknown rule id(s) in --disable: {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2
    if disabled:
        rules = [rule_obj for rule_obj in rules if rule_obj.id not in disabled]

    findings = lint_paths(args.paths, rules=rules)
    if args.format == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2))
    elif args.format == "sarif":
        print(json.dumps(render_sarif(findings, rules), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"\n{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
