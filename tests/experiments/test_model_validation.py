"""Tests for the Formula-1 model-validation sweep."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.harness import ExperimentScale
from repro.experiments.sweep import FIGURES, run_sweep

SMALL = ExperimentScale.small()


@pytest.fixture(scope="module")
def rows():
    return run_sweep(replace(FIGURES["model"], values=(50, 100, 200)), SMALL, seed=0)


def test_filtering_prediction_is_exact(rows):
    for row in rows:
        assert abs(row["filt meas"] - row["filt pred"]) / row["filt pred"] < 1e-9


def test_dissemination_prediction_is_exact(rows):
    for row in rows:
        assert row["diss meas"] == pytest.approx(row["diss pred"])


def test_aggregation_bound_holds(rows):
    for row in rows:
        assert row["aggr meas"] <= row["aggr bound"]
        assert row["aggr meas"] > 0


def test_bound_tightens_as_filtering_improves(rows):
    # Larger g -> surviving candidates are the globally-popular items held
    # at nearly every peer -> the every-candidate-at-every-peer bound gets
    # closer to reality.
    slack = [row["aggr meas"] / row["aggr bound"] for row in rows]
    assert slack[-1] > slack[0]


def test_cli_model_command(capsys):
    from repro.experiments.__main__ import main

    assert main(["model", "--scale", "small"]) == 0
    output = capsys.readouterr().out
    assert "Formula 1" in output
    assert "prediction error" in output
