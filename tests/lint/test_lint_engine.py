"""Engine and CLI behaviour: path gathering, output formats, exit codes."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro.lint import (
    Finding,
    gather_paths,
    known_rule_ids,
    lint_paths,
    lint_source,
    parse_suppressions,
)


def test_gather_paths_walks_py_only(tmp_path):
    (tmp_path / "module.py").write_text("x = 1\n")
    (tmp_path / "fixture.pytxt").write_text("import time\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "module.cpython-311.py").write_text("x = 1\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "secret.py").write_text("x = 1\n")
    found = gather_paths([str(tmp_path)])
    assert found == [str(tmp_path / "module.py")]


def test_gather_paths_keeps_explicit_files(tmp_path):
    fixture = tmp_path / "fixture.pytxt"
    fixture.write_text("x = 1\n")
    assert gather_paths([str(fixture)]) == [str(fixture)]


def test_lint_paths_reports_syntax_errors_as_parse_findings(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = lint_paths([str(bad)])
    assert [f.rule for f in findings] == ["PARSE"]


def test_lint_paths_flags_fixture_when_named_explicitly(tmp_path):
    fixture = tmp_path / "wall_clock.pytxt"
    fixture.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    findings = lint_paths([str(fixture)])
    assert [f.rule for f in findings] == ["DET001"]
    # ...but a directory walk over the same tree ignores it.
    assert lint_paths([str(tmp_path)]) == []


def test_known_rule_ids_cover_the_documented_set():
    """Every registered rule has a ``### RULEID —`` section in
    docs/LINT_RULES.md, and every section names a registered rule."""
    doc = pathlib.Path(__file__).parents[2] / "docs" / "LINT_RULES.md"
    documented = set(
        re.findall(r"^### ([A-Z]+[0-9]+) —", doc.read_text(encoding="utf-8"), re.M)
    )
    assert known_rule_ids() == documented


def test_suppression_parsing_forms():
    source = (
        "# repro-lint: disable-file=PROTO002\n"
        "x = 1  # repro-lint: disable=DET001\n"
        "# repro-lint: disable-next=DET002, DET003\n"
        "y = 2\n"
        's = "# repro-lint: disable=API001"\n'
    )
    sup = parse_suppressions(source)
    assert sup.file_level == {"PROTO002"}
    assert sup.by_line == {2: {"DET001"}, 4: {"DET002", "DET003"}}

    def finding(rule, line):
        return Finding(path="p", line=line, col=0, rule=rule, message="")

    assert sup.is_suppressed(finding("PROTO002", 99))
    assert sup.is_suppressed(finding("DET001", 2))
    assert sup.is_suppressed(finding("DET003", 4))
    assert not sup.is_suppressed(finding("DET001", 4))
    # Directive-looking text inside a string literal is not a directive.
    assert not sup.is_suppressed(finding("API001", 5))


def test_unknown_rule_in_suppression_does_not_hide_others():
    source = "import time\n\n\ndef f():\n    return time.time()  # repro-lint: disable=NOPE001\n"
    findings = lint_source(source, path="src/repro/core/x.py")
    assert [f.rule for f in findings] == ["DET001"]


@pytest.fixture
def run_cli():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True,
            text=True,
            timeout=120,
        )

    return run


def test_cli_clean_tree_exits_zero(run_cli, tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    result = run_cli(str(tmp_path))
    assert result.returncode == 0
    assert result.stdout.strip() == ""


def test_cli_findings_exit_one_text_and_json(run_cli, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\n\ndef f():\n    return time.time()\n")

    text = run_cli(str(dirty))
    assert text.returncode == 1
    assert "DET001" in text.stdout

    as_json = run_cli("--format=json", str(dirty))
    assert as_json.returncode == 1
    payload = json.loads(as_json.stdout)
    assert payload[0]["rule"] == "DET001"
    assert payload[0]["line"] == 5


def test_cli_list_rules(run_cli):
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in (
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "PERF001",
        "PERF002",
        "PROTO001",
        "PROTO002",
        "PROTO004",
        "API001",
    ):
        assert rule_id in result.stdout


def test_cli_sarif_output(run_cli, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    result = run_cli("--format=sarif", str(dirty))
    assert result.returncode == 1
    log = json.loads(result.stdout)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert any(rule["id"] == "DET001" for rule in run["tool"]["driver"]["rules"])
    (finding,) = run["results"]
    assert finding["ruleId"] == "DET001"
    region = finding["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 5
    assert region["startColumn"] == 12  # 1-based (AST col 11)


def test_cli_disable_skips_rules(run_cli, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    result = run_cli("--disable=DET001", str(dirty))
    assert result.returncode == 0
    assert result.stdout.strip() == ""


def test_cli_disable_rejects_unknown_rule(run_cli, tmp_path):
    result = run_cli("--disable=NOPE001", str(tmp_path))
    assert result.returncode == 2
    assert "NOPE001" in result.stderr
