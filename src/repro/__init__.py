"""netfilter-p2p: a reproduction of *Identifying Frequent Items in P2P
Systems* (Mei Li, ICDCS 2008).

The library implements the **netFilter** two-phase in-network filtering
protocol for the IFI (Identifying Frequent Items) problem, together with
every substrate it runs on: a deterministic discrete-event engine, an
unstructured P2P overlay with heartbeats and churn, a BFS aggregation
hierarchy with repair, hierarchical aggregate computation (and push-sum
gossip as an array program, :mod:`repro.vec.gossip`), the naive
full-collection baseline, the paper's analytic cost model and
optimal-setting formulas, in-network parameter estimation by branch
sampling, workload generators (including the six Table I applications),
and an experiment harness regenerating every figure of the evaluation.

Quickstart
----------
>>> from repro import (Simulation, Network, Topology, Workload, Hierarchy,
...                    AggregationEngine, NetFilter, NetFilterConfig)
>>> sim = Simulation(seed=7)
>>> topology = Topology.random_connected(100, 4.0, sim.rng.stream("topology"))
>>> network = Network(sim, topology)
>>> workload = Workload.zipf(n_items=2000, n_peers=100, skew=1.0,
...                          rng=sim.rng.stream("workload"))
>>> network.assign_items(workload.item_sets)
>>> hierarchy = Hierarchy.build(network, root=0)
>>> engine = AggregationEngine(hierarchy)
>>> config = NetFilterConfig(filter_size=50, num_filters=3, threshold_ratio=0.01)
>>> result = NetFilter(config).run(engine)
>>> bool((result.frequent.values >= result.threshold).all())
True
"""

from repro.aggregation import AggregationEngine
from repro.core import (
    ApproximateConfig,
    ApproximateIFIProtocol,
    ContinuousNetFilter,
    CountMinSketch,
    FilterBank,
    NaiveProtocol,
    NaiveResult,
    NetFilter,
    NetFilterConfig,
    NetFilterResult,
    OptimalSettings,
    ParameterEstimates,
    ParameterEstimator,
    SamplingConfig,
    derive_optimal_settings,
    oracle_frequent_items,
)
from repro.hierarchy import Hierarchy, check_invariants, tree_stats
from repro.items import LocalItemSet
from repro.metrics import CostAccounting, CostBreakdown, MetricsRegistry
from repro.net import (
    CostCategory,
    HeartbeatConfig,
    Network,
    SizeModel,
    Topology,
    TransportConfig,
)
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.sim import Simulation
from repro.workload import Workload, ZipfStream

__version__ = "1.0.0"

__all__ = [
    "AggregationEngine",
    "ApproximateConfig",
    "ApproximateIFIProtocol",
    "ChurnConfig",
    "ContinuousNetFilter",
    "CountMinSketch",
    "ZipfStream",
    "ChurnProcess",
    "CostAccounting",
    "CostBreakdown",
    "CostCategory",
    "FilterBank",
    "HeartbeatConfig",
    "Hierarchy",
    "LocalItemSet",
    "MetricsRegistry",
    "NaiveProtocol",
    "NaiveResult",
    "NetFilter",
    "NetFilterConfig",
    "NetFilterResult",
    "Network",
    "OptimalSettings",
    "ParameterEstimates",
    "ParameterEstimator",
    "SamplingConfig",
    "Simulation",
    "SizeModel",
    "Topology",
    "TransportConfig",
    "Workload",
    "check_invariants",
    "derive_optimal_settings",
    "oracle_frequent_items",
    "tree_stats",
    "__version__",
]
