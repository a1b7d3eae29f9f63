"""The seed-parallel runner's determinism contract.

``jobs=1`` and ``jobs=N`` must produce identical rows in identical
order — the contract :mod:`repro.experiments.parallel` documents and the
``--jobs`` CLI flag relies on.  The figure tables' side of it is pinned
by digest, per ``--jobs`` value, in ``test_golden.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.parallel import TrialSpec, run_trials


def _square(x: int) -> int:
    return x * x


def _boom() -> None:
    raise ValueError("worker failure must propagate")


class TestRunTrials:
    def test_results_in_spec_order(self) -> None:
        specs = [TrialSpec(fn=_square, kwargs={"x": x}) for x in (3, 1, 2)]
        assert run_trials(specs, jobs=1) == [9, 1, 4]
        assert run_trials(specs, jobs=2) == [9, 1, 4]

    def test_jobs_one_runs_in_process(self) -> None:
        # A closure is unpicklable, so this passing proves no pool is
        # involved on the sequential path.
        captured: list[int] = []
        specs = [TrialSpec(fn=lambda: captured.append(7)), TrialSpec(fn=lambda: captured.append(8))]
        run_trials(specs, jobs=1)
        assert captured == [7, 8]

    def test_worker_exception_propagates(self) -> None:
        with pytest.raises(ValueError, match="must propagate"):
            run_trials([TrialSpec(fn=_boom)] * 2, jobs=2)

    def test_single_spec_skips_pool(self) -> None:
        assert run_trials([TrialSpec(fn=_square, kwargs={"x": 5})], jobs=8) == [25]
