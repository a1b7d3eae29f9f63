"""Command-line entry point for the evaluation experiments.

Usage::

    python -m repro.experiments fig5 --scale paper --seed 0
    python -m repro.experiments all --scale small --json results.json

``--scale small`` keeps the workload shape at a fraction of the paper's
size (fast; used by CI); ``--scale paper`` and ``--scale large`` are the
sizes of the paper's Figures 5-7(a) and 7(b)/8 respectively.  ``--json``
additionally writes every generated row to a machine-readable file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import Any, Callable

from repro.experiments.ablations import run_all_ablations
from repro.experiments.harness import ExperimentScale, flush_traces, set_trace_dir
from repro.experiments.report import render_rows, render_table
from repro.experiments.sweep import FIGURES, Sweep, run_sweep

RowsByTable = dict[str, list[dict[str, Any]]]


def _sweep(sweep: Sweep, args: argparse.Namespace, scale: ExperimentScale) -> RowsByTable:
    rows = run_sweep(sweep, scale, args.seed, jobs=args.jobs)
    title = sweep.title.format(scale=scale.name, config=sweep.configs_at(scale)[0])
    print(render_rows(rows, title=title))
    if sweep.footer is not None:
        print(sweep.footer(scale, args.seed, rows))
    return {sweep.table: [row.as_dict() for row in rows]}


def _robustness(args: argparse.Namespace, scale: ExperimentScale) -> RowsByTable:
    from repro.experiments.robustness import run_robustness

    rows = run_robustness(scale, args.seed, jobs=args.jobs)
    print(
        render_table(
            [row.as_dict() for row in rows],
            title=(
                f"Robustness — exactness under loss x churn, hardened vs "
                f"baseline ({scale.name})"
            ),
        )
    )
    return {"robustness": [row.as_dict() for row in rows]}


def _ablations(args: argparse.Namespace, scale: ExperimentScale) -> RowsByTable:
    collected: RowsByTable = {}
    for title, rows in run_all_ablations(scale, args.seed, jobs=args.jobs).items():
        print(render_table([row.as_dict() for row in rows], title=f"Ablation — {title}"))
        print()
        collected[f"ablation: {title}"] = [row.as_dict() for row in rows]
    return collected


def _soak(args: argparse.Namespace, scale: ExperimentScale) -> RowsByTable:
    # One long-lived service run; inherently sequential, so --jobs is unused.
    from repro.experiments.soak import SoakConfig, run_soak

    seed = args.seed
    config = SoakConfig.smoke(seed) if scale.name == "small" else SoakConfig.full(seed)
    result = run_soak(config)
    stride = max(1, len(result.rows) // 25)
    print(
        render_table(
            result.rows[::stride],
            title=(
                f"Soak — {config.epochs} epochs, {config.n_peers} peers, "
                f"churn x burst loss x flash crowds (every {stride}th epoch)"
            ),
        )
    )
    print(f"\nReplay digest: {result.digest}")
    for key in sorted(result.summary):
        print(f"  {key}: {result.summary[key]}")
    return {"soak": result.rows, "soak_summary": [result.summary]}


def _overload(args: argparse.Namespace, scale: ExperimentScale) -> RowsByTable:
    # One long-lived front-door run; inherently sequential, so --jobs is unused.
    from repro.experiments.overload import OverloadConfig, run_overload

    seed = args.seed
    config = (
        OverloadConfig.smoke(seed) if scale.name == "small" else OverloadConfig.full(seed)
    )
    result = run_overload(config)
    stride = max(1, len(result.round_rows) // 25)
    print(
        render_table(
            result.round_rows[::stride],
            title=(
                f"Overload — {config.rounds} rounds, {config.n_peers} peers, "
                f"flash crowds x burst loss x root crash (every {stride}th round)"
            ),
        )
    )
    print(f"\nReplay digest: {result.digest}")
    for key in sorted(result.summary):
        print(f"  {key}: {result.summary[key]}")
    return {"overload": result.round_rows, "overload_summary": [result.summary]}


def _scaling(args: argparse.Namespace, scale: ExperimentScale) -> RowsByTable:
    from repro.experiments.scaling import run_scaling

    engine, shards = args.engine, args.shards
    rows = run_scaling(scale, args.seed, engine=engine, shards=shards, jobs=args.jobs)
    print(
        render_table(
            [row.as_dict() for row in rows],
            title=(
                f"Scaling — population sweep, engine={engine}, "
                f"shards={shards} ({scale.name})"
            ),
        )
    )
    if engine == "vec":
        print("\nReplay digests (pure functions of seed x plan):")
        for row in rows:
            print(f"  N={row.n_peers}: {row.digest}")
    return {"scaling": [row.as_dict() for row in rows]}


#: Every command's handler: (parsed args, scale) -> tables, in `all` order.
COMMANDS: dict[str, Callable[[argparse.Namespace, ExperimentScale], RowsByTable]] = {
    **{name: partial(_sweep, sweep) for name, sweep in FIGURES.items()},
    "ablations": _ablations,
    "robustness": _robustness,
    "soak": _soak,
    "overload": _overload,
    "scaling": _scaling,
}


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the selected experiments, print (and
    optionally export) the tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the figures of 'Identifying Frequent Items "
        "in P2P Systems' (ICDCS 2008).",
    )
    parser.add_argument(
        "experiment", choices=[*COMMANDS, "all"], help="which figure to regenerate"
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=["small", "medium", "paper", "large"],
        help="experiment size (paper defaults: fig5-7a=paper, fig7b/8=large)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run independent experiment cells on N worker processes "
        "(results are identical to --jobs 1; see repro.experiments.parallel)",
    )
    parser.add_argument(
        "--engine",
        default="vec",
        choices=["scalar", "vec"],
        help="execution tier for the `scaling` command: the event-driven "
        "scalar engine or the columnar vectorized tier (default: vec)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="K",
        help="split the `scaling` command's vectorized populations into K "
        "independent space shards merged at a super-root (results are a "
        "pure function of seed x K, independent of --jobs)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write all generated rows to this JSON file",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="stream one JSONL telemetry trace per trial into this "
        "directory and print a run report for each",
    )
    parser.add_argument(
        "--trace-sample",
        metavar="K",
        type=int,
        default=1,
        help="keep 1 in K high-frequency trace events (msg.*, heartbeat.*)",
    )
    parser.add_argument(
        "--trace-spans",
        action="store_true",
        help="record causal spans in each trace (requires --trace-dir); "
        "enables critical-path and attribution views in the run reports "
        "and `python -m repro.telemetry export-chrome`",
    )
    args = parser.parse_args(argv)

    scale = ExperimentScale.by_name(args.scale)
    selected = list(COMMANDS) if args.experiment == "all" else [args.experiment]
    if args.trace_dir and args.jobs > 1:
        # Per-trial traces are collected from in-process globals; pool
        # workers cannot populate them, so tracing forces sequential runs.
        print("--trace-dir requires sequential execution; ignoring --jobs", file=sys.stderr)
        args.jobs = 1
    if args.trace_spans and not args.trace_dir:
        parser.error("--trace-spans requires --trace-dir")
    if args.trace_sample < 1:
        parser.error("--trace-sample must be at least 1")
    if args.trace_dir:
        set_trace_dir(
            args.trace_dir, sample_every=args.trace_sample, spans=args.trace_spans
        )
    exported: dict[str, Any] = {
        "scale": scale.name,
        "n_peers": scale.n_peers,
        "n_items": scale.n_items,
        "seed": args.seed,
        "tables": {},
    }
    try:
        for name in selected:
            # Progress line for humans; wall time never enters results.
            started = time.perf_counter()  # repro-lint: disable=DET001
            exported["tables"].update(COMMANDS[name](args, scale))
            elapsed = time.perf_counter() - started  # repro-lint: disable=DET001
            print(f"\n[{name} completed in {elapsed:.1f}s]\n")
            if args.trace_dir:
                _report_traces(flush_traces())
    finally:
        if args.trace_dir:
            flush_traces()
            set_trace_dir(None)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(exported, handle, indent=2, default=float)
        print(f"Rows exported to {args.json}")
    return 0


def _report_traces(paths: list[str]) -> None:
    """Print a run report for every freshly closed trace."""
    from repro.telemetry.report import build_report, render_report
    from repro.telemetry.sink import iter_trace

    for path in paths:
        print(render_report(build_report(iter_trace(path), path=path)))
        print()
    if paths:
        print(
            f"{len(paths)} trace(s) written; re-inspect any of them with "
            f"`python -m repro.telemetry report <trace>`"
        )


if __name__ == "__main__":
    sys.exit(main())
