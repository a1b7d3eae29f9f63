"""Measuring one workload, and the command line around it.

One process measures one workload (so peak RSS is per workload): three
set-up passes, then the timed op repeated for ``--seconds``.  End-to-end
numbers come from a run with the benchmark's tracing off; ``--trace 1`` is
a separate run that first does the same for a quarter of the time, then
wraps the layer boundaries (:mod:`perf.trace`), builds the system again and
reports per-layer counts and self-times.  ``--workload all`` runs every workload in its own child
process, and ``--repeat K`` does that K times and compares the sets.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import AbstractContextManager, nullcontext
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter, process_time
from typing import Any, Iterator

import numpy

from perf.metrics import END_TO_END, PER_LAYER, layer_value
from perf.trace import SpanLog, sim_counters, tracing
from perf.workloads import WORKLOADS, Outcome, Workload

PERF_DIR = Path(__file__).resolve().parent

SETUP_PASSES = 3
#: A run measures at least this many ops however short ``--seconds`` is.
MIN_OPS = 2
#: Share of a traced run spent timing untraced ops for trace.overhead_ratio.
UNTRACED_SHARE = 0.25


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """The ops of one measured run and the gates they must pass."""

    def __init__(self, name: str, seed: int, smoke: bool, scratch: str) -> None:
        self.name, self.seed, self.smoke, self.scratch = name, seed, smoke, scratch
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: (sim_bytes, sim_time, digest) of the first op; every later op
        #: of the run must reproduce it exactly.
        self.reference: tuple[float, float, str] | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def build(self) -> Workload:
        gc.collect()
        workload = WORKLOADS[self.name](self.seed, self.smoke, self.scratch)
        workload.setup()
        return workload

    def op(
        self, workload: Workload, bracket: AbstractContextManager[None] = nullcontext()
    ) -> tuple[float, float, Outcome | None]:
        """One checked op: (wall seconds, cpu seconds, outcome or None).
        ``bracket`` is entered around the op alone, not its check."""
        self.attempted += 1
        gc.collect()
        cpu_started = _cpu_seconds()
        started = perf_counter()
        try:
            with bracket:
                raw = workload.run()
        except Exception as error:  # the op's own failure is the measurement
            self.fail(f"op raised {type(error).__name__}: {error}")
            return perf_counter() - started, _cpu_seconds() - cpu_started, None
        wall = perf_counter() - started
        cpu = _cpu_seconds() - cpu_started
        outcome = workload.check(raw)
        signature = (outcome.sim_bytes, outcome.sim_time, outcome.digest)
        if self.reference is None:
            self.reference = signature
        if outcome.error:
            self.fail(outcome.error)
        elif signature != self.reference:
            self.fail(f"simulated statistics {signature} differ from {self.reference}")
        return wall, cpu, outcome

    def ops(self, workload: Workload, seconds: float) -> Iterator[tuple[float, float]]:
        deadline = perf_counter() + seconds
        done = 0
        while done < MIN_OPS or perf_counter() < deadline:
            wall, cpu, _ = self.op(workload)
            yield wall, cpu
            done += 1

    def close(self, workload: Workload) -> None:
        error = workload.close()
        if error:
            self.fail(error)

    def record(self, metrics: dict[str, dict]) -> dict:
        sim_bytes, sim_time, digest = self.reference or (0.0, 0.0, "")
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "sim_bytes": sim_bytes,
            "sim_time": sim_time,
            "digest": digest,
            "metrics": metrics,
        }


def _spread(values: list[float]) -> dict[str, Any]:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"q1": q1, "q3": q3, "n": len(values)}


def measure_untraced(run: Run, seconds: float) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    setups = []
    workload = None
    for _ in range(SETUP_PASSES):
        if workload is not None:
            run.close(workload)
            workload = None  # drop the previous system before building the next
        started = perf_counter()
        workload = run.build()
        run.op(workload)  # the warm-up op belongs to set-up
        setups.append(perf_counter() - started)
    walls, cpus = [], []
    for wall, cpu in run.ops(workload, seconds):
        walls.append(wall)
        cpus.append(cpu)
        if len(walls) == MIN_OPS:
            # Read after a fixed amount of work: a system that keeps state
            # per op would otherwise weigh more the more ops fit in a run.
            peak_rss_mb = _peak_rss_mb()
    work = workload.work
    run.close(workload)
    wall_s = median(walls)
    return run.record(
        {
            "setup_s": {"value": median(setups), **_spread(setups)},
            "wall_s": {"value": wall_s, **_spread(walls)},
            "cpu_s": {"value": median(cpus), **_spread(cpus)},
            "work_per_s": {"value": work / wall_s, "work": work},
            "peak_rss_mb": {"value": peak_rss_mb},
        }
    )


def measure_traced(
    run: Run, seconds: float, import_s: float = 0.0, spans_out: str | None = None
) -> dict:
    """The per-layer metrics of one workload.  A short untraced
    measurement comes first: it is the base of ``trace.overhead_ratio``,
    and its set-up passes warm the process (allocator, caches) exactly as
    they do before the end-to-end numbers are taken.  Then the system is
    built again and the op repeated under spans."""
    base = measure_untraced(run, seconds * UNTRACED_SHARE)
    log = SpanLog()
    op_facts: list[dict[str, float]] = []
    with tracing(log):
        with log.root("bench:setup"):
            workload = run.build()
        setup_facts = log.facts()
        run.op(workload)
        deadline = perf_counter() + seconds * (1.0 - UNTRACED_SHARE)
        while len(op_facts) < MIN_OPS or perf_counter() < deadline:
            standing = len(log.sims)
            before = sim_counters(log.sims)
            _, _, outcome = run.op(workload, bracket=log.root("bench:op"))
            facts = log.facts()
            after = sim_counters(log.sims)
            del log.sims[standing:]  # simulations the op built die with it
            for key in after:
                facts["sim/" + key] = float(after[key] - before.get(key, 0))
            if outcome is not None:
                facts["op/sim_bytes"] = float(outcome.sim_bytes)
                facts["op/sim_time"] = float(outcome.sim_time)
                facts["op/trace_bytes"] = float(outcome.trace_bytes)
            facts["op/shards"] = float(workload.shards)
            op_facts.append(facts)
        if spans_out:
            with open(spans_out, "w", encoding="utf-8") as handle:
                for span in log.spans():
                    handle.write(json.dumps(span) + "\n")
        run.close(workload)

    for facts in op_facts:
        facts["run/untraced_wall_s"] = base["metrics"]["wall_s"]["value"]
        facts["run/import_s"] = import_s

    record = run.record(
        {m.name: {"value": layer_value(m, setup_facts, op_facts)} for m in PER_LAYER}
    )
    record["telescoping_error_s"] = max(telescoping_error(facts) for facts in op_facts)
    return record


def telescoping_error(facts: dict[str, float]) -> float:
    """How far one op's self-times are from summing to its traced wall."""
    own = sum(value for key, value in facts.items() if key.startswith("self/"))
    return abs(own - facts["incl/bench:op"])


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _units(trace: bool) -> dict[str, str]:
    return {metric.name: metric.unit for metric in (PER_LAYER if trace else END_TO_END)}


def _print_record(record: dict) -> None:
    units = _units(record["trace"])
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}"
        f"  ops {record['attempted']}  failed {record['failed']}"
        f"  fail_share {record['failed'] / record['attempted']:.4f}"
    )
    for name, entry in record["metrics"].items():
        detail = "  ".join(
            f"{key} {entry[key]:.8g}" for key in ("q1", "q3", "n", "work") if key in entry
        )
        print(f"  {name:<42} {entry['value']:>18.6f} {units[name]:<8} {detail}".rstrip())
    if record["trace"]:
        print(f"  self-times sum to the traced wall within {record['telescoping_error_s']:.3g} s")
    else:
        print(f"  {'sim_bytes':<42} {record['sim_bytes']:>18.6f} bytes    simulated")
        print(f"  {'sim_time':<42} {record['sim_time']:>18.6f} sim-s    simulated")
    print(f"  digest {record['digest']}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")


def _result_line(record: dict) -> str:
    units = _units(record["trace"])
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": units[name]}
                for name, entry in record["metrics"].items()
            },
        }
    )


def provenance() -> dict[str, Any]:
    """Where and on what the numbers were taken."""
    commit = cpu = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=PERF_DIR, capture_output=True, text=True, timeout=10, check=False,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.partition(":")[2].strip() for line in handle if "model name" in line]
        cpu = models[0] if models else cpu
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "load_average": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Suites: every workload, each in its own process
# ----------------------------------------------------------------------
def _run_suite(args: argparse.Namespace, names: tuple[str, ...], scratch: str) -> list[dict]:
    records = []
    for name in names:
        out = os.path.join(scratch, f"{name}.json")
        command = [
            sys.executable, str(PERF_DIR / "run.py"),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--json", out,
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        # The child's last line is the driver's JSON; the rest is the report.
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
        if not os.path.exists(out):
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} exited with code {done.returncode} and no result")
        with open(out, encoding="utf-8") as handle:
            records.append(json.load(handle))
        os.remove(out)
    return records


def _show(value: Any) -> str:
    return f"{value:18.6f}" if isinstance(value, float) else f"{value!s:>18}"


def compare(first: list[dict], second: list[dict]) -> int:
    """Print, per workload and metric, both values of two suites, their
    relative difference and the bound; returns how many pairs disagree.
    Simulated statistics, digests, failures and exact layer metrics must
    match exactly; traced times have no bound and are not compared."""
    bounds: dict[str, float] = {metric.name: metric.bound for metric in END_TO_END}
    bounds.update({metric.name: 0.0 for metric in PER_LAYER if metric.exact})
    flagged = 0
    print(f"{'workload':<20} {'metric':<42} {'first':>18} {'second':>18} {'diff':>8} {'bound':>6}")
    for a, b in zip(first, second):
        rows = [(key, a[key], b[key], 0.0) for key in ("failed", "sim_bytes", "sim_time", "digest")]
        rows += [
            (name, entry["value"], b["metrics"][name]["value"], bounds[name])
            for name, entry in a["metrics"].items()
            if name in bounds
        ]
        for name, x, y, bound in rows:
            if bound == 0.0:
                outside, diff = x != y, "exact"
            else:
                change = abs(y - x) / abs(x)
                outside, diff = change > bound, f"{change:.2%}"
            flagged += outside
            x, y = (v[:12] if isinstance(v, str) else v for v in (x, y))
            print(
                f"{a['workload']:<20} {name:<42} {_show(x)} {_show(y)} {diff:>8} {bound:>6.2f}"
                + ("  OUTSIDE" if outside else "")
            )
    print(f"{flagged} pair(s) outside their bound")
    return flagged


def main(argv: list[str] | None = None, import_s: float = 0.0) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics) instead of end-to-end")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the suite this many times and compare the sets")
    parser.add_argument("--smoke", action="store_true", help="small sizes, for the self-test")
    parser.add_argument("--json", metavar="OUT", help="write the full records here")
    parser.add_argument("--spans", metavar="OUT",
                        help="with --trace 1 and one workload: write the last op's spans (JSONL)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(PERF_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
            args.seconds = float(json.load(handle)["run_seconds"])

    # Temporary files (trace JSONL, suite records) stay inside perf/ and
    # go away with the run.
    scratch = tempfile.mkdtemp(prefix=".tmp-", dir=PERF_DIR)
    try:
        if args.workload != "all" and args.repeat == 1:
            run = Run(args.workload, args.seed, args.smoke, scratch)
            if args.trace:
                record = measure_traced(run, args.seconds, import_s, args.spans)
            else:
                record = measure_untraced(run, args.seconds)
            record.update(workload=args.workload, seed=args.seed, trace=bool(args.trace),
                          smoke=args.smoke, seconds=args.seconds, provenance=provenance())
            _print_record(record)
            if args.json:
                with open(args.json, "w", encoding="utf-8") as handle:
                    json.dump(record, handle, indent=1)
            print(_result_line(record))
            return 1 if record["failed"] else 0

        names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
        suites = [_run_suite(args, names, scratch) for _ in range(args.repeat)]
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump({"provenance": provenance(), "suites": suites}, handle, indent=1)
        flagged = sum(compare(suites[0], later) for later in suites[1:])
        failed = sum(record["failed"] for suite in suites for record in suite)
        return 1 if failed or flagged else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
