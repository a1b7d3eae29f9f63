"""Common machinery for the evaluation experiments.

:class:`PaperDefaults` pins the constants of the paper's Table III;
:func:`build_trial` assembles a complete simulated system (topology →
network → workload → hierarchy → aggregation engine) from a scale and a
seed, so every experiment is a parameter sweep over ready-made trials.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.aggregation.hierarchical import AggregationEngine
from repro.hierarchy.builder import Hierarchy
from repro.hierarchy.monitor import tree_stats
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.wire import SizeModel
from repro.sim.engine import Simulation
from repro.workload.workload import Workload


@dataclass(frozen=True)
class PaperDefaults:
    """Table III of the paper: simulation parameters and default values."""

    #: N — number of peers in the network.
    n_peers: int = 1000
    #: n — number of distinct items in the system.
    n_items: int = 100_000
    #: ρ — threshold ratio (t = ρ·v).
    threshold_ratio: float = 0.01
    #: α — skew of the Zipf distribution.
    skew: float = 1.0
    #: b — target mean number of downstream neighbours per peer.
    branching: int = 3
    #: Instances generated per distinct item (the paper's ``10·n`` total).
    instances_per_item: int = 10
    #: s_a = s_g = s_i = 4 bytes.
    size_model: SizeModel = SizeModel()


#: The scales experiments run at.  ``o = instances_per_item · n / N`` stays
#: at the paper's 1000 for "paper"; "small" keeps the same shape at ~1/20
#: of the size so the test and benchmark suites stay fast.
@dataclass(frozen=True)
class ExperimentScale:
    """A (N, n) scale for an experiment run."""

    name: str
    n_peers: int
    n_items: int

    @classmethod
    def small(cls) -> "ExperimentScale":
        return cls(name="small", n_peers=100, n_items=5_000)

    @classmethod
    def medium(cls) -> "ExperimentScale":
        return cls(name="medium", n_peers=300, n_items=30_000)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls(name="paper", n_peers=1000, n_items=100_000)

    @classmethod
    def large(cls) -> "ExperimentScale":
        return cls(name="large", n_peers=1000, n_items=1_000_000)

    @classmethod
    def by_name(cls, name: str) -> "ExperimentScale":
        presets = {
            "small": cls.small,
            "medium": cls.medium,
            "paper": cls.paper,
            "large": cls.large,
        }
        if name not in presets:
            raise ValueError(f"unknown scale {name!r}; choose from {sorted(presets)}")
        return presets[name]()


@dataclass
class TrialSetup:
    """A fully-assembled simulated system ready for protocol runs."""

    sim: Simulation
    network: Network
    hierarchy: Hierarchy
    engine: AggregationEngine
    workload: Workload
    defaults: PaperDefaults
    #: JSONL trace file this trial streams to (None when tracing is off).
    trace_path: str | None = field(default=None)

    @property
    def hierarchy_height(self) -> int:
        """Measured hierarchy height ``h``."""
        return self.hierarchy.height()

    @property
    def mean_fanout(self) -> float:
        """Measured mean downstream fan-out ``b``."""
        return tree_stats(self.hierarchy).mean_fanout

    def finish_trace(self) -> str | None:
        """Flush and close this trial's trace sink(s); returns the path."""
        self.sim.telemetry.close()
        return self.trace_path


# ----------------------------------------------------------------------
# Per-run trace export.  ``set_trace_dir`` makes every subsequently built
# trial stream its telemetry to an auto-named JSONL file in that directory
# (the CLI's ``--trace-dir``); sweeps get one trace per run for free.
# ----------------------------------------------------------------------
_trace_dir: str | None = None
_trace_sample_every = 1
_trace_spans = False
_trace_seq = itertools.count()
_open_trials: list[TrialSetup] = []


def set_trace_dir(path: str | None, sample_every: int = 1, spans: bool = False) -> None:
    """Enable (or, with None, disable) automatic per-trial JSONL tracing.

    With ``spans=True`` every traced trial also records causal spans
    (:mod:`repro.telemetry.spans`), so its trace feeds the run report's
    critical-path and attribution views and the Chrome exporter.
    """
    global _trace_dir, _trace_sample_every, _trace_spans
    if path is not None:
        os.makedirs(path, exist_ok=True)
    _trace_dir = path
    _trace_sample_every = sample_every
    _trace_spans = spans


def flush_traces() -> list[str]:
    """Close every trace opened by :func:`build_trial` since the last
    flush; returns the trace paths, in creation order."""
    paths = []
    for trial in _open_trials:
        if trial.finish_trace() is not None:
            paths.append(trial.trace_path)
    _open_trials.clear()
    return paths


def build_trial(
    scale: ExperimentScale,
    seed: int = 0,
    skew: float | None = None,
    defaults: PaperDefaults | None = None,
    trace_path: str | None = None,
    trace_sample_every: int = 1,
    trace_spans: bool = False,
    topology: Callable[[int, np.random.Generator], Topology] | None = None,
) -> TrialSetup:
    """Assemble a trial: overlay, network, Zipf workload, hierarchy, engine.

    The overlay is a connected random graph with mean degree
    ``branching + 1`` so the BFS hierarchy's mean downstream fan-out lands
    near the paper's ``b`` (each non-root peer consumes one edge for its
    parent); ``topology(n_peers, rng)`` builds another family from the
    trial's ``topology`` stream instead.  The root is peer 0 — the paper
    selects a root at random, and under a seeded random topology peer 0
    *is* a random peer.

    ``trace_path`` streams the trial's telemetry to that JSONL file (close
    it via :meth:`TrialSetup.finish_trace`); when a trace directory is set
    with :func:`set_trace_dir`, a file is auto-named per trial instead.
    """
    base = defaults or PaperDefaults()
    base = replace(base, n_peers=scale.n_peers, n_items=scale.n_items)
    if skew is not None:
        base = replace(base, skew=skew)

    sim = Simulation(seed=seed)
    if trace_path is None and _trace_dir is not None:
        trace_path = os.path.join(
            _trace_dir,
            f"trial-{scale.name}-seed{seed}-{next(_trace_seq):03d}.jsonl",
        )
        trace_sample_every = max(trace_sample_every, _trace_sample_every)
        trace_spans = trace_spans or _trace_spans
    if trace_path is not None:
        sim.telemetry.attach_jsonl(trace_path, sample_every=trace_sample_every)
        if trace_spans:
            sim.telemetry.enable_spans(sample_every=trace_sample_every)
    rng = sim.rng.stream("topology")
    overlay = (
        topology(base.n_peers, rng)
        if topology is not None
        else Topology.random_connected(base.n_peers, float(base.branching + 1), rng)
    )
    network = Network(sim, overlay, size_model=base.size_model)
    workload = Workload.zipf(
        n_items=base.n_items,
        n_peers=base.n_peers,
        skew=base.skew,
        rng=sim.rng.stream("workload"),
        instances_per_item=base.instances_per_item,
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy)
    trial = TrialSetup(
        sim=sim,
        network=network,
        hierarchy=hierarchy,
        engine=engine,
        workload=workload,
        defaults=base,
        trace_path=trace_path,
    )
    if trace_path is not None:
        _open_trials.append(trial)
    return trial
