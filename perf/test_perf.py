"""Self-test of the benchmark, at ``--smoke`` sizes.

Run with ``PYTHONPATH=src python -m pytest perf -q``; it is not part of
the tier-1 ``testpaths``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perf import bench, metrics, trace
from perf.workloads import SCALAR_CONFIG, WORKLOADS, ScalarWide

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(name: str, traced: bool, scratch: Path) -> dict:
    run = bench.Run(name, seed=1, smoke=True, scratch=str(scratch))
    measure = bench.measure_traced if traced else bench.measure_untraced
    return measure(run, seconds=0.0)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict[tuple[str, bool], list[dict]]:
    """Two smoke runs of every workload, untraced and traced."""
    scratch = tmp_path_factory.mktemp("scratch")
    return {
        (name, traced): [_measure(name, traced, scratch) for _ in range(2)]
        for name in WORKLOADS
        for traced in (False, True)
    }


def test_benchmark_json_declares_what_the_code_reports() -> None:
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARED["command"] == ["python3", "perf/run.py"]
    assert DECLARED["paths"] == ["perf"]
    assert DECLARED["workloads"] == [
        {"name": cls.name, "why": cls.why} for cls in WORKLOADS.values()
    ]
    assert DECLARED["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert DECLARED["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(cls.why) <= 200 and "\n" not in cls.why for cls in WORKLOADS.values())
    assert len(metrics.PER_LAYER) <= 128 and 2 <= len(WORKLOADS) <= 8
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in metrics.END_TO_END)
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_and_no_other_is_emitted(smoke: dict, name: str) -> None:
    for traced, declared in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
        for record in smoke[name, traced]:
            assert list(record["metrics"]) == [m.name for m in declared]
            assert record["failed"] == 0, record["errors"]
            assert record["attempted"] >= bench.MIN_OPS
    for record in smoke[name, False]:
        assert all(entry["value"] > 0 for entry in record["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_two_runs_agree_on_everything_simulated(smoke: dict, name: str) -> None:
    first, second = smoke[name, True]
    for key in ("sim_bytes", "sim_time", "digest"):
        assert first[key] == second[key] == smoke[name, False][0][key]
    for metric in metrics.PER_LAYER:
        if metric.exact:
            assert first["metrics"][metric.name] == second["metrics"][metric.name], metric.name
    assert bench.compare([dict(first, workload=name)], [dict(second, workload=name)]) == 0


def test_compare_flags_a_moved_simulated_statistic(smoke: dict) -> None:
    first = dict(smoke["scalar_paper", False][0], workload="scalar_paper")
    second = copy.deepcopy(first)
    second["sim_bytes"] += 4
    second["metrics"]["wall_s"]["value"] *= 2
    assert bench.compare([first], [second]) == 2


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_telescope_to_the_traced_wall(name: str, tmp_path: Path) -> None:
    run = bench.Run(name, seed=2, smoke=True, scratch=str(tmp_path))
    log = trace.SpanLog()
    with trace.tracing(log):
        workload = run.build()
        run.op(workload, bracket=log.root("bench:op"))
        facts = log.facts()
        run.close(workload)
    assert run.failed == 0, run.errors
    wall = facts["incl/bench:op"]
    assert bench.telescoping_error(facts) <= 1e-9 * wall
    # The declared self-time metrics are those spans, layer by layer.
    declared = sum(
        metrics._total(facts, m.keys) for m in metrics.PER_LAYER if m.name.endswith(".self_s")
    )
    assert declared == pytest.approx(wall, rel=1e-9)


def test_every_traced_layer_has_a_self_time_metric() -> None:
    declared = {m.name for m in metrics.PER_LAYER}
    layers = {target.layer for target in trace._targets(trace.SpanLog())}
    assert {f"{layer}.self_s" for layer in layers | {"aggregation.combiners"}} <= declared


def test_tracing_puts_every_original_back(tmp_path: Path) -> None:
    import repro.vec
    import repro.vec.build
    from repro.net.node import Node
    from repro.sim.engine import Simulation

    def held() -> list[object]:
        # Two methods, and one function under each name that binds it.
        return [
            Simulation.__dict__["run"], Node.__dict__["send"],
            repro.vec.build.build_table, repro.vec.build_table,
            sys.modules["perf.workloads"].build_table,
        ]

    before = held()
    log = trace.SpanLog()
    with trace.tracing(log):
        assert all(a is not b for a, b in zip(held(), before))
        assert repro.vec.build_table is sys.modules["perf.workloads"].build_table
    assert all(a is b for a, b in zip(held(), before))
    # A following untraced op runs the original callables: nothing is logged.
    run = bench.Run("scalar_wide", seed=1, smoke=True, scratch=str(tmp_path))
    run.op(run.build())
    assert run.failed == 0 and not log.start and not log.sims


def test_a_wrong_answer_is_a_failed_op(tmp_path: Path) -> None:
    run = bench.Run("scalar_wide", seed=1, smoke=True, scratch=str(tmp_path))
    workload = run.build()
    workload.oracle = {}
    run.op(workload)
    assert (run.attempted, run.failed) == (1, 1)


def test_sim_bytes_is_the_accounting_delta_of_the_same_trial(smoke: dict) -> None:
    from repro.core.netfilter import NetFilter
    from repro.experiments.harness import ExperimentScale, build_trial

    trial = build_trial(ExperimentScale("outside", *ScalarWide.smoke_size), seed=1)
    before = trial.network.accounting.total_bytes()
    NetFilter(SCALAR_CONFIG).run(trial.engine)
    spent = trial.network.accounting.total_bytes() - before
    assert smoke["scalar_wide", False][0]["sim_bytes"] == spent


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace_flag", ("0", "1"))
def test_command_line_prints_the_result_line_last(trace_flag: str) -> None:
    done = _cli("--workload", "scalar_traced", "--seed", "3", "--seconds", "0",
                "--trace", trace_flag, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace_flag == "1" else metrics.END_TO_END
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m.name: m.unit for m in declared
    }
    assert not list((ROOT / "perf").glob(".tmp-*"))


def test_without_the_sources_the_command_fails_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _cli("--workload", "scalar_wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
