"""Figures 5–8 and the Formula 1 check: one sweep, one table row each.

The evaluation (Section V) runs one protocol and varies one parameter at
a time.  A :class:`Sweep` names that parameter (``axis``), its values, the
fixed netFilter settings, whether the naive baseline runs alongside, and
how a point's measurements project onto the printed columns; :data:`FIGURES`
holds the paper's five.  Shape targets, all asserted at small scale by
``tests/experiments/test_figures.py`` and ``test_model_validation.py``:

* **fig5** (``g`` from 25 to 500, ``f = 3``): below ``g ≈ 50`` nothing is
  pruned and candidates per peer sit near ``o``; heavy groups rise then
  fall; the total cost dips to its minimum near Formula 3's
  ``g_opt = c + v̄_light/(ρ·v̄) ≈ c + 80`` and then grows with filtering.
* **fig6** (``f`` from 1 to 10, ``g = 100``): candidates fall monotonically,
  heavy groups grow about linearly, the total is minimized near Formula 6's
  ``f_opt = 3``.
* **fig7** (Zipf skew α, tuned ``g = 100``; ``f = 3`` at ``n = 10^5``, 5 at
  ``n = 10^6``): netFilter costs a small fraction of naive (2–5 % at
  ``n = 10^6``), and both fall as skew grows.  The paper's x-axis ticks are
  not recoverable from the available text (the "0..5" near the axis label
  is the log-scale *y* axis), so the sweep stays where its observations hold.
* **fig8** (α at ``ρ ∈ {0.001, 0.01, 0.1}``, each at its tuned ``(g, f)``):
  cost falls as ``ρ`` rises, every curve far below naive; the tuned ``g``
  tracks Formula 3's ``g_opt ∝ 1/ρ``.
* **model** (the ``g`` sweep beside Formula 1): filtering and dissemination
  are exact predictions up to the root's missing ``1/N`` share (the root
  sends nothing upward); the aggregation term charges every candidate at
  every peer, so it bounds the measurement from above, more tightly as
  filtering improves.

Execution: a sweep is a list of trials (one per skew, or one shared trial
for a ``g``/``f`` axis), each with its ordered netFilter settings.
:func:`run_sweep` cuts each trial's settings into contiguous chunks, one
chunk per trial at ``jobs=1``, and hands them to
:func:`~repro.experiments.parallel.run_trials`.  netFilter runs consume no
trial RNG, so every cut measures the same cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.config import NetFilterConfig
from repro.core.cost_model import netfilter_cost
from repro.core.naive import NaiveProtocol
from repro.core.netfilter import NetFilter
from repro.core.optimizer import optimal_filter_count, optimal_filter_size
from repro.experiments.harness import (
    ExperimentScale,
    PaperDefaults,
    TrialSetup,
    build_trial,
)
from repro.experiments.parallel import TrialSpec, run_trials

#: What one netFilter run measures, keyed by column name.
Cell = dict[str, float]


@dataclass(frozen=True)
class SweepRow:
    """One printed row of a sweep table: column → value, in print order."""

    columns: dict[str, float]

    def __getitem__(self, column: str) -> float:
        return self.columns[column]

    def as_dict(self) -> dict[str, float]:
        return dict(self.columns)


@dataclass(frozen=True)
class Sweep:
    """One figure of the evaluation as a parameter sweep."""

    #: CLI command.
    name: str
    #: Key of the table in the ``--json`` export.
    table: str
    #: ``"skew"`` (one trial per value) or the ``NetFilterConfig`` field the
    #: values override (one shared trial).
    axis: str
    values: tuple[float, ...]
    #: The fixed netFilter settings, run in order on every trial.
    configs: tuple[NetFilterConfig, ...]
    #: ``(axis value, cells of the row, naive cost)`` → columns.
    columns: Callable[[float, Sequence[Cell], float], dict[str, float]]
    #: ``str.format`` template over ``scale`` and ``config`` (the first setting).
    title: str
    naive: bool = False
    #: Settings used instead at ``n ≥ 10^6`` (Fig 7(b)'s tuned ``f = 5``).
    large_configs: tuple[NetFilterConfig, ...] = ()
    #: Lines printed under the table: ``(scale, seed, rows)`` → text.
    footer: Callable[[ExperimentScale, int, list[SweepRow]], str] | None = None

    def configs_at(self, scale: ExperimentScale) -> tuple[NetFilterConfig, ...]:
        if self.large_configs and scale.n_items >= 1_000_000:
            return self.large_configs
        return self.configs

    def trials(
        self, scale: ExperimentScale
    ) -> list[tuple[float | None, tuple[NetFilterConfig, ...]]]:
        """``(skew, settings)`` per trial; ``None`` is the default skew."""
        configs = self.configs_at(scale)
        if self.axis == "skew":
            return [(value, configs) for value in self.values]
        return [
            (None, tuple(replace(configs[0], **{self.axis: value}) for value in self.values))
        ]


def _measure(trial: TrialSetup, config: NetFilterConfig) -> Cell:
    """One netFilter run: the paper's panels plus Formula 1's prediction."""
    result = NetFilter(config).run(trial.engine)
    cost = result.breakdown
    predicted = netfilter_cost(
        filter_size=config.filter_size,
        num_filters=config.num_filters,
        heavy_groups_per_filter=result.heavy_groups.total_count / config.num_filters,
        heavy_count=len(result.frequent),
        false_positives=result.false_positive_count,
        size_model=trial.network.size_model,
    )
    population = trial.network.n_peers
    non_root_share = (population - 1) / population
    return {
        "rho": config.threshold_ratio or 0.0,
        "candidates/peer": result.avg_candidates_per_peer,
        "heavy groups": result.heavy_groups.total_count,
        "candidates": result.candidate_count,
        "false pos": result.false_positive_count,
        "filtering": cost.filtering,
        "dissemination": cost.dissemination,
        "aggregation": cost.aggregation,
        "total": cost.total,
        "frequent": len(result.frequent),
        "filt pred": predicted.filtering * non_root_share,
        "diss pred": predicted.dissemination * non_root_share,
        "aggr bound": predicted.aggregation,
    }


def _run_chunk(
    scale: ExperimentScale,
    seed: int,
    skew: float | None,
    configs: tuple[NetFilterConfig, ...],
    naive: bool,
) -> tuple[list[Cell], float | None]:
    """Run ``configs`` in order on one fresh trial, then the naive baseline
    if asked (the pool worker)."""
    trial = build_trial(scale, seed=seed, skew=skew)
    cells = [_measure(trial, config) for config in configs]
    if not naive:
        return cells, None
    return cells, NaiveProtocol(configs[0]).run(trial.engine).breakdown.naive


def _split(configs: tuple[NetFilterConfig, ...], parts: int) -> list[tuple[NetFilterConfig, ...]]:
    """``configs`` cut into at most ``parts`` contiguous, near-equal chunks."""
    parts = min(parts, len(configs))
    size = len(configs)
    return [configs[i * size // parts : (i + 1) * size // parts] for i in range(parts)]


def run_sweep(
    sweep: Sweep, scale: ExperimentScale, seed: int = 0, jobs: int = 1
) -> list[SweepRow]:
    """Run ``sweep`` at ``scale``; rows come back in sweep order.

    Each trial's settings are cut into enough chunks to give ``jobs``
    workers work; with ``jobs=1`` every trial is one chunk, so a ``g`` or
    ``f`` sweep shares one trial.
    """
    trials = sweep.trials(scale)
    parts = max(1, -(-jobs // len(trials)))
    specs: list[TrialSpec] = []
    owners: list[int] = []
    for index, (skew, configs) in enumerate(trials):
        chunks = _split(configs, parts)
        for number, chunk in enumerate(chunks, 1):
            specs.append(
                TrialSpec(
                    fn=_run_chunk,
                    kwargs=dict(
                        scale=scale,
                        seed=seed,
                        skew=skew,
                        configs=chunk,
                        naive=sweep.naive and number == len(chunks),
                    ),
                    label=f"{sweep.name} trial {index} chunk {number}",
                )
            )
            owners.append(index)
    cells: list[list[Cell]] = [[] for _ in trials]
    naive = [0.0 for _ in trials]
    for index, (chunk_cells, naive_cost) in zip(owners, run_trials(specs, jobs=jobs)):
        cells[index] += chunk_cells
        if naive_cost is not None:
            naive[index] = naive_cost
    if sweep.axis == "skew":
        return [
            SweepRow(sweep.columns(skew, cells[index], naive[index]))
            for index, (skew, _) in enumerate(trials)
        ]
    return [
        SweepRow(sweep.columns(value, [cell], naive[0]))
        for value, cell in zip(sweep.values, cells[0])
    ]


def predicted_optimal_g(scale: ExperimentScale, seed: int = 0) -> int:
    """Formula 3's prediction for the swept workload (the paper's
    ``g_opt = c + 80 ≈ 100``)."""
    trial = build_trial(scale, seed=seed)
    ratio = trial.defaults.threshold_ratio
    threshold = trial.workload.threshold(ratio)
    return optimal_filter_size(
        ratio,
        mean_value=trial.workload.mean_value(),
        mean_light_value=trial.workload.mean_light_value(threshold),
    )


def predicted_optimal_f(
    scale: ExperimentScale, seed: int = 0, filter_size: int = 100
) -> int:
    """Formula 6's prediction for the swept workload (the paper's
    ``f_opt = 3``)."""
    trial = build_trial(scale, seed=seed)
    threshold = trial.workload.threshold(trial.defaults.threshold_ratio)
    return optimal_filter_count(
        filter_size,
        heavy_count=trial.workload.heavy_count(threshold),
        n_items=trial.workload.n_items,
        size_model=trial.network.size_model,
    )


_PANELS = (
    "candidates/peer",
    "heavy groups",
    "candidates",
    "false pos",
    "filtering",
    "dissemination",
    "aggregation",
    "total",
)


def _panels(axis_column: str) -> Callable[[float, Sequence[Cell], float], dict[str, float]]:
    """Figures 5 and 6: both panels of one setting."""
    return lambda value, cells, naive: {
        axis_column: value,
        **{column: cells[0][column] for column in _PANELS},
    }


def _model_columns(value: float, cells: Sequence[Cell], naive: float) -> dict[str, float]:
    cell = cells[0]
    return {
        "g": value,
        "filt pred": cell["filt pred"],
        "filt meas": cell["filtering"],
        "diss pred": cell["diss pred"],
        "diss meas": cell["dissemination"],
        "aggr bound": cell["aggr bound"],
        "aggr meas": cell["aggregation"],
    }


def _versus_naive(value: float, cells: Sequence[Cell], naive: float) -> dict[str, float]:
    total = cells[0]["total"]
    return {
        "alpha": value,
        "netFilter": total,
        "naive": naive,
        "ratio": total / naive if naive else 0.0,
        "frequent": cells[0]["frequent"],
    }


def _by_ratio(value: float, cells: Sequence[Cell], naive: float) -> dict[str, float]:
    cost_by_ratio = {cell["rho"]: cell["total"] for cell in cells}
    return {
        "alpha": value,
        **{f"rho={ratio}": cost_by_ratio[ratio] for ratio in sorted(cost_by_ratio)},
        "naive": naive,
    }


def _optimum(
    formula: str, column: str, predict: Callable[[ExperimentScale, int], int]
) -> Callable[[ExperimentScale, int, list[SweepRow]], str]:
    """Footer: the formula's predicted optimum beside the measured one."""

    def footer(scale: ExperimentScale, seed: int, rows: list[SweepRow]) -> str:
        best = min(rows, key=lambda row: row["total"])
        return (
            f"\n{formula} predicted {column}_opt = {predict(scale, seed)}\n"
            f"Measured minimum total cost at {column} = {best[column]}"
        )

    return footer


def _worst_filtering_error(scale: ExperimentScale, seed: int, rows: list[SweepRow]) -> str:
    worst = max(
        abs(row["filt meas"] - row["filt pred"]) / max(row["filt pred"], 1e-9) for row in rows
    )
    return f"\nWorst filtering-term prediction error: {100 * worst:.2f}%"


def _config(filter_size: int, num_filters: int, ratio: float) -> NetFilterConfig:
    return NetFilterConfig(
        filter_size=filter_size, num_filters=num_filters, threshold_ratio=ratio
    )


_RHO = PaperDefaults.threshold_ratio
_TUNED = (_config(100, 3, _RHO),)
_SKEWS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)

#: The paper's figures, in CLI order.
FIGURES: dict[str, Sweep] = {
    sweep.name: sweep
    for sweep in (
        Sweep(
            name="fig5",
            table="fig5",
            axis="filter_size",
            values=(25, 50, 75, 100, 150, 200, 250, 300, 400, 500),
            configs=_TUNED,
            columns=_panels("g"),
            title="Figure 5 — effect of filter size g (f={config.num_filters}, {scale})",
            footer=_optimum("Formula 3", "g", predicted_optimal_g),
        ),
        Sweep(
            name="fig6",
            table="fig6",
            axis="num_filters",
            values=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
            configs=_TUNED,
            columns=_panels("f"),
            title="Figure 6 — effect of number of filters f (g={config.filter_size}, {scale})",
            footer=_optimum("Formula 6", "f", predicted_optimal_f),
        ),
        Sweep(
            name="fig7",
            table="fig7",
            axis="skew",
            values=_SKEWS,
            configs=_TUNED,
            large_configs=(_config(100, 5, _RHO),),
            naive=True,
            columns=_versus_naive,
            title=(
                "Figure 7 — effect of data skewness (g={config.filter_size}, "
                "f={config.num_filters}, {scale}): netFilter vs naive"
            ),
        ),
        Sweep(
            name="fig8",
            table="fig8",
            axis="skew",
            values=_SKEWS,
            configs=(_config(1000, 2, 0.001), _config(100, 5, 0.01), _config(10, 6, 0.1)),
            naive=True,
            columns=_by_ratio,
            title="Figure 8 — effect of threshold ratio ({scale}): cost vs skew",
        ),
        Sweep(
            name="model",
            table="model_validation",
            axis="filter_size",
            values=(50, 100, 200, 400),
            configs=_TUNED,
            columns=_model_columns,
            title="Cost model validation — Formula 1 predicted vs measured ({scale})",
            footer=_worst_filtering_error,
        ),
    )
}
