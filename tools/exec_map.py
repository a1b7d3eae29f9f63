#!/usr/bin/env python3
"""Function-level execution map of ``src/repro``.

    python3 tools/exec_map.py [--out docs/EXEC_MAP.md]

Runs the production paths and the tier-1 suite with a profile hook that
records every ``src/repro`` function entered, then writes a Markdown
report: per-file function-body lines that production enters, that only
tier-1 enters, and that nothing enters, plus every function reached only
by tier-1 — the default candidates for deletion.

Production is what a user or a CI gate runs: the experiments CLI, a
traced run read back through the telemetry CLI, the examples, the
linter over ``src`` and its SARIF export, the ``perf/`` smoke workloads
and the ``benchmarks/`` gates.  Tier-1 is ``pytest tests``.

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH``, so
every interpreter a command starts is mapped: subprocesses, spawned
workers, and forked pool workers (which inherit the hook and the
append-mode record file).  Each process appends a function the first
time it enters it, so workers killed at pool shutdown lose nothing.

Stdlib only.  A run takes about five times as long as tier-1 alone.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = (ROOT / "src").resolve()

#: Installed as ``sitecustomize`` in every mapped interpreter.  Code
#: objects compare equal across files, so ``seen`` keys them by ``id``
#: and holds them so the ids stay unique.
HOOK = '''\
import os, sys, threading

def _install(out, root):
    fd = os.open(out, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    seen = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code
                path = os.path.realpath(code.co_filename)
                if path.startswith(root):
                    line = f"{path}\\t{code.co_firstlineno}\\t{code.co_qualname}\\n"
                    os.write(fd, line.encode())

    sys.setprofile(profile)
    threading.setprofile(profile)

if os.environ.get("EXEC_MAP_OUT"):
    _install(os.environ["EXEC_MAP_OUT"], os.environ["EXEC_MAP_ROOT"])
'''


def production(tmp: Path) -> list[list[str]]:
    """The production commands, in order; ``{traces}`` expands to the
    JSONL files the traced fig5 run wrote."""
    py = sys.executable
    commands = [
        [py, "-m", "repro.experiments", "all", "--scale", "small", "--json", str(tmp / "all.json")],
        [py, "-m", "repro.experiments", "fig5", "--scale", "small",
         "--trace-dir", str(tmp / "traces"), "--trace-spans"],
        [py, "-m", "repro.telemetry", "run-report", "{traces}"],
        [py, "-m", "repro.telemetry", "kinds", "{traces}"],
        [py, "-m", "repro.telemetry", "export-chrome", "{traces}"],
    ]
    commands += [[py, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    commands += [
        [py, "-m", "repro.lint", "src"],
        [py, "-m", "repro.lint", "--format=sarif", "src"],
        [py, "perf/run.py", "--smoke"],
        [py, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider", "--benchmark-disable"],
    ]
    return commands


TIER1 = [sys.executable, "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider"]


def run_mapped(commands: list[list[str]], record: Path, tmp: Path) -> list[int]:
    """Run ``commands`` from the repo root, appending every ``src``
    function they enter to ``record``; returns their exit statuses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tmp / "hook"), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["EXEC_MAP_OUT"] = str(record)
    env["EXEC_MAP_ROOT"] = str(SRC) + os.sep
    statuses = []
    for command in commands:
        if "{traces}" in command:
            traces = sorted(str(p) for p in (tmp / "traces").glob("*.jsonl"))
            at = command.index("{traces}")
            command = command[:at] + traces + command[at + 1 :]
        print("exec_map:", " ".join(command[1:]), file=sys.stderr, flush=True)
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        # pytest and the linter exit 1 when they ran to the end and found
        # something: a wall-clock floor can fail under the hook, and the
        # functions the run entered still count.  Anything else aborts.
        allowed = {0, 1} if {"pytest", "repro.lint"} & set(command) else {0}
        if done.returncode not in allowed:
            sys.exit(f"exec_map: {' '.join(command[1:])} exited {done.returncode}")
        statuses.append(done.returncode)
    return statuses


def entered(record: Path) -> set[tuple[str, int, str]]:
    """``(path relative to src, first line, bare name)`` per entry."""
    out = set()
    for line in record.read_text().splitlines():
        path, first, qualname = line.split("\t")
        out.add((str(Path(path).relative_to(SRC)), int(first), qualname.rsplit(".", 1)[-1]))
    return out


@dataclass(frozen=True)
class Function:
    path: str
    first: int  # first decorator, else the ``def`` line: ``co_firstlineno``
    qualname: str
    lines: int  # own span, nested functions excluded

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.path, self.first, self.qualname.rsplit(".", 1)[-1])


def functions(path: Path) -> list[Function]:
    """Every ``def`` in one source file, with its own line count."""
    rel = str(path.relative_to(SRC))
    found: list[Function] = []

    def span(node: ast.AST) -> tuple[int, int]:
        decorators = getattr(node, "decorator_list", [])
        return (min([node.lineno] + [d.lineno for d in decorators]), node.end_lineno)

    def nested_defs(node: ast.AST) -> list[ast.AST]:
        """The outermost functions inside ``node``'s body."""
        out = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(child)
            else:
                out.extend(nested_defs(child))
        return out

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first, last = span(child)
                inner = sum(b - a + 1 for a, b in map(span, nested_defs(child)))
                found.append(Function(rel, first, prefix + child.name, last - first + 1 - inner))
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


CATEGORIES = ("production", "tier-1 only", "never")


def render(
    table: dict[str, list[tuple[Function, str]]], runs: list[tuple[str, list[str], int]]
) -> str:
    def shown(command: list[str]) -> str:
        words = ["python" if word == sys.executable else word for word in command]
        words = ["TMP/traces/*.jsonl" if w == "{traces}" else w for w in words]
        words = [w.replace(str(ROOT) + os.sep, "") for w in words]
        return " ".join("TMP/" + Path(w).name if w.startswith(tempfile.gettempdir()) else w for w in words)

    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for rows in table.values():
        for fn, category in rows:
            totals[category][0] += 1
            totals[category][1] += fn.lines
    out = [
        "# Execution map of `src/repro`",
        "",
        "Written by `python3 tools/exec_map.py`; regenerate rather than edit.",
        "",
        "A function is **production** when a production path enters it,",
        "**tier-1 only** when only `pytest tests` does, and **never** when",
        "neither does.  Its lines run from its first decorator to its last",
        "line, less the functions nested in it, which count on their own.",
        "Forked, spawned and subprocess interpreters are mapped too.",
        "",
        "Commands and their exit status.  pytest exits 1 when a test fails;",
        "under the hook `bench_hotpath`'s wall-clock floor does, and what",
        "that run entered still counts.",
        "",
        *(f"- {label}: `{shown(command)}` (exit {status})" for label, command, status in runs),
        "",
        "## Totals",
        "",
        "| | functions | lines |",
        "| --- | ---: | ---: |",
        *(f"| {c} | {totals[c][0]} | {totals[c][1]} |" for c in CATEGORIES),
        "",
        "## Lines per file",
        "",
        "| file | production | tier-1 only | never |",
        "| --- | ---: | ---: | ---: |",
    ]
    for path in sorted(table):
        lines = dict.fromkeys(CATEGORIES, 0)
        for fn, category in table[path]:
            lines[category] += fn.lines
        out.append(f"| `{path}` | " + " | ".join(str(lines[c]) for c in CATEGORIES) + " |")
    for category, title in (("tier-1 only", "reached only by tier-1"), ("never", "nothing enters")):
        out += ["", f"## Functions {title}", "", "| function | lines |", "| --- | ---: |"]
        for path in sorted(table):
            for fn, found in table[path]:
                if found == category:
                    out.append(f"| `{path}:{fn.first}` `{fn.qualname}` | {fn.lines} |")
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "docs" / "EXEC_MAP.md")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="exec-map-") as name:
        tmp = Path(name)
        (tmp / "hook").mkdir()
        (tmp / "hook" / "sitecustomize.py").write_text(HOOK)
        commands = production(tmp)
        statuses = run_mapped(commands, tmp / "production.txt", tmp)
        runs = [("production", c, status) for c, status in zip(commands, statuses)]
        runs.append(("tier-1", TIER1, *run_mapped([TIER1], tmp / "tier1.txt", tmp)))
        prod = entered(tmp / "production.txt")
        tier1 = entered(tmp / "tier1.txt")
        table = {}
        for path in sorted((SRC / "repro").rglob("*.py")):
            rows = []
            for fn in functions(path):
                category = (
                    "production" if fn.key in prod else "tier-1 only" if fn.key in tier1 else "never"
                )
                rows.append((fn, category))
            table[str(path.relative_to(SRC))] = rows
        args.out.write_text(render(table, runs))
    print(f"exec_map: wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
