"""Tests for the ASCII report rendering and the CLI."""

from __future__ import annotations

from repro.experiments.report import format_value, render_rows, render_table


class TestFormatting:
    def test_ints_plain(self):
        assert format_value(42) == "42"

    def test_large_floats_one_decimal(self):
        assert format_value(1234.567) == "1234.6"

    def test_small_floats_three_decimals(self):
        assert format_value(0.1234) == "0.123"

    def test_tiny_floats_scientific(self):
        assert format_value(0.00001234) == "1.23e-05"

    def test_zero(self):
        assert format_value(0.0) == "0"

    def test_huge_numbers_compact(self):
        assert format_value(12_345_678.0) == "1.23e+07"


class TestTable:
    def test_renders_aligned_columns(self):
        rows = [{"g": 25, "cost": 100.5}, {"g": 500, "cost": 3.25}]
        text = render_table(rows, title="sweep")
        lines = text.splitlines()
        assert lines[0] == "sweep"
        assert "g" in lines[1] and "cost" in lines[1]
        assert len(lines) == 5
        # All rows align to the same width.
        assert len(set(len(line) for line in lines[1:])) == 1

    def test_empty_rows(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_missing_keys_degrade_gracefully(self):
        rows = [{"a": 1, "b": 2}, {"a": 3}]
        text = render_table(rows)
        assert "3" in text

    def test_render_rows_uses_as_dict(self):
        class Row:
            def as_dict(self):
                return {"x": 7}

        assert "7" in render_rows([Row()])


class TestCli:
    def test_fig5_command_runs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig5", "--scale", "small", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "Figure 5" in output
        assert "g_opt" in output

    def test_unknown_scale_rejected(self):
        import pytest

        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig5", "--scale", "galactic"])

    def test_trace_sample_below_one_rejected(self, tmp_path, capsys):
        import pytest

        from repro.experiments.__main__ import main

        for sample in ("0", "-3"):
            argv = ["fig5", "--trace-dir", str(tmp_path), "--trace-sample", sample]
            with pytest.raises(SystemExit):
                main(argv)
            assert "--trace-sample must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig6_and_fig7_commands_run(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig6", "--scale", "small"]) == 0
        assert main(["fig7", "--scale", "small"]) == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output and "Figure 7" in output

    def test_json_export(self, tmp_path, capsys):
        import json

        from repro.experiments.__main__ import main

        target = tmp_path / "rows.json"
        assert main(["fig5", "--scale", "small", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["scale"] == "small"
        assert payload["n_peers"] == 100
        rows = payload["tables"]["fig5"]
        assert len(rows) == 10
        assert {"g", "total"} <= set(rows[0])
