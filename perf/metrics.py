"""Every metric the benchmark reports, by name.

``BENCHMARK.json`` repeats the names, units and directions declared
here (``perf/test_perf.py`` holds the two in step).  End-to-end metrics
are measured with tracing off; per-layer metrics come from the traced
pass and are sums of the facts :meth:`perf.trace.SpanLog.facts` and the
runner produce:

``self/<span>``, ``incl/<span>``  seconds of self / inclusive span time
``n/<span>``                      number of spans
``c/<counter>``                   counts taken by wrapper hooks
``sim/<counter>``                 the program's own counters, per op
``op/<field>``, ``run/<field>``   values the workload / the run supplies

A key ending in ``*`` sums every fact with that prefix; a key starting
with ``-`` is subtracted.
"""

from __future__ import annotations

from statistics import median
from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    meaning: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of the set-up passes of one run (input generation, system "
             "construction, one checked warm-up op; imports excluded)"),
    EndToEnd("wall_s", "s/op", "lower", 0.24,
             "median perf_counter time around one op"),
    EndToEnd("cpu_s", "s/op", "lower", 0.24,
             "median user+system CPU time (self + children) of one op"),
    EndToEnd("work_per_s", "work/s", "higher", 0.24,
             "closed-form work units of one op divided by wall_s"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "ru_maxrss of the workload's process (max of self, children) after the "
             "set-up passes and the first two ops"),
)


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    keys: tuple[str, ...]
    #: Denominator keys; when given the metric is a per-op ratio.
    per: tuple[str, ...] = ()
    #: Also counts the traced set-up pass (for work done while building).
    setup: bool = False
    #: A count or simulated statistic: must read the same on every run.
    exact: bool = False
    #: Which end-to-end number the metric is expected to move, and where.
    moves: str = ""


def _seconds(name: str, *keys: str, setup: bool = False, moves: str = "") -> LayerMetric:
    return LayerMetric(name, "s", "lower", keys, setup=setup, moves=moves)


def _self(layer: str, moves: str = "") -> LayerMetric:
    return _seconds(f"{layer}.self_s", f"self/{layer}:*", moves=moves)


def _count(
    name: str, *keys: str, better: str = "lower", setup: bool = False, moves: str = ""
) -> LayerMetric:
    return LayerMetric(name, "count", better, keys, setup=setup, exact=True, moves=moves)


_AGG = "aggregation.hierarchical:AggregationEngine."


def _phase(name: str, *specs: str) -> LayerMetric:
    keys = [f"incl/{_AGG}{call}[{spec}]" for spec in specs for call in ("start", "drive_session")]
    return _seconds(name, *keys, moves="phase split of wall_s on scalar_*")


PER_LAYER = (
    # -- the scalar event engine ---------------------------------------
    _self("sim.engine", "wall_s on scalar_wide, monitor_soak; not scalar_paper, vec_*"),
    _count("sim.engine.events", "c/sim.engine.events"),
    _count("sim.engine.compactions", "sim/compactions"),
    _count("net.transport.sends", "n/net.transport:Node.send"),
    _self("net.transport", "wall_s on scalar_wide"),
    _count("net.transport.dropped", "sim/reg:net.msgs_dropped.*",
           moves="non-zero only on monitor_soak, frontdoor_overload"),
    _count("net.transport.retransmits", "sim/reg:transport.retransmits",
           moves="non-zero only on monitor_soak"),
    _count("net.node.deliveries", "n/net.node:handler*", "n/net.heartbeat:handler*",
           "n/net.node:Node.deliver"),
    _self("net.node", "wall_s on scalar_wide, monitor_soak (handlers run under it)"),
    _count("aggregation.hierarchical.sessions", f"n/{_AGG}start*",
           f"n/{_AGG}dead_root_session*"),
    _count("aggregation.hierarchical.failed_sessions",
           "c/aggregation.hierarchical.failed_sessions"),
    _self("aggregation.hierarchical", "wall_s on scalar_* (the session drive loop)"),
    _phase("core.netfilter.totals_s", "netfilter.totals"),
    _phase("core.netfilter.filter_s", "netfilter.group_aggregates", "netfilter.group_deltas"),
    _phase("core.netfilter.verify_s", "netfilter.candidates"),
    _count("aggregation.combiners.combines", "n/aggregation.combiners:combine*"),
    _self("aggregation.combiners", "wall_s on scalar_paper"),
    _count("core.filters.calls", "n/core.filters:*"),
    _count("core.filters.items_hashed", "c/core.filters.items_hashed"),
    _self("core.filters", "wall_s on scalar_paper most, scalar_wide some"),
    _count("core.verification.calls", "n/core.verification:*"),
    _self("core.verification", "wall_s on scalar_paper"),
    _count("items.merges", "n/items:LocalItemSet.merge_many", "n/items:FadedItemSet.merge_faded"),
    _count("items.pairs_in", "c/items.pairs_in"),
    _self("items", "wall_s on scalar_paper, monitor_soak; vec_sharded merge step"),
    _count("telemetry.emits", "n/telemetry:Tracer.emit"),
    _count("telemetry.spans", "c/telemetry.spans"),
    _self("telemetry", "wall_s on scalar_traced only; scalar_wide must not move"),
    LayerMetric("telemetry.trace_bytes", "bytes", "lower", ("op/trace_bytes",),
                moves="wall_s on scalar_traced"),
    _count("metrics.records", "n/metrics:*"),
    _self("metrics", "wall_s on scalar_wide"),
    # -- set-up of the scalar system -----------------------------------
    _seconds("net.overlay.build_s", "incl/net.overlay:*", setup=True,
             moves="setup_s on scalar_*"),
    _self("net.overlay"),
    _seconds("workload.build_s", "incl/workload:Workload.zipf", setup=True,
             moves="setup_s on scalar_*"),
    _self("workload"),
    _seconds("net.network.build_s", "incl/net.network:*", setup=True,
             moves="setup_s on scalar_*"),
    _self("net.network"),
    _seconds("hierarchy.builder.build_s", "incl/hierarchy.builder:*", setup=True,
             moves="setup_s on scalar_*"),
    _self("hierarchy.builder"),
    _seconds("aggregation.hierarchical.build_s", f"incl/{_AGG}__init__", setup=True,
             moves="setup_s on scalar_*"),
    _seconds("core.oracle.check_s", "incl/core.oracle:*", setup=True,
             moves="setup_s on scalar_*"),
    _self("core.oracle"),
    # -- the standing monitor ------------------------------------------
    _count("service.monitor.epochs", "n/service.monitor:MonitorService.run_one"),
    _count("service.monitor.commits", "c/service.monitor.commits", better="higher"),
    _count("service.monitor.degraded", "c/service.monitor.degraded"),
    _count("service.monitor.attempts", "c/service.monitor.attempts"),
    _self("service.monitor", "wall_s on monitor_soak"),
    _count("core.continuous.attempts", "n/core.continuous:ContinuousNetFilter.begin_attempt"),
    _self("core.continuous", "wall_s on monitor_soak"),
    _count("net.heartbeat.beats", "n/net.heartbeat:handler*",
           moves="heartbeats delivered; wall_s on monitor_soak"),
    _self("net.heartbeat", "wall_s on monitor_soak"),
    _count("hierarchy.maintenance.invalidations", "sim/reg:hierarchy.invalidations"),
    _count("hierarchy.maintenance.reattachments", "sim/reg:hierarchy.reattachments"),
    _count("faults.injected", "sim/reg:faults.injected"),
    _count("net.churn.failures", "sim/trace:churn.failure"),
    _self("workload.streams", "wall_s on monitor_soak"),
    # -- the front door ------------------------------------------------
    _count("frontdoor.service.submits", "n/frontdoor.service:FrontDoor.submit"),
    _count("frontdoor.service.rounds", "sim/reg:frontdoor.rounds"),
    _seconds("frontdoor.service.submit_s", "incl/frontdoor.service:FrontDoor.submit",
             moves="wall_s on frontdoor_overload"),
    _self("frontdoor.service", "wall_s on frontdoor_overload"),
    _count("frontdoor.admission.decisions", "n/frontdoor.admission:AdmissionController.decide"),
    _count("frontdoor.admission.rejects", "c/frontdoor.admission.rejects"),
    _self("frontdoor.admission", "wall_s on frontdoor_overload"),
    _count("frontdoor.batching.sessions", "n/frontdoor.batching:BatchSessionRunner.run"),
    _count("frontdoor.batching.retries", "c/frontdoor.batching.retries"),
    _count("frontdoor.batching.carves", "n/frontdoor.batching:BatchOutcome.carve"),
    _self("frontdoor.batching", "wall_s on frontdoor_overload"),
    _count("frontdoor.cache.lookups", "n/frontdoor.cache:AnswerCache.lookup"),
    _count("frontdoor.cache.hits", "c/frontdoor.cache.hits", better="higher",
           moves="hits avoid sessions: sim_bytes, wall_s on frontdoor_overload"),
    LayerMetric("frontdoor.cache.hit_ratio", "ratio", "higher", ("c/frontdoor.cache.hits",),
                per=("n/frontdoor.cache:AnswerCache.lookup",), exact=True),
    _self("frontdoor.cache", "wall_s on frontdoor_overload"),
    # -- the vectorized tier -------------------------------------------
    _count("vec.build.calls", "n/vec.build:build_table", setup=True),
    LayerMetric("vec.build.calls_per_shard", "ratio", "lower", ("n/vec.build:build_table",),
                per=("op/shards",), setup=True, exact=True,
                moves="the wasted-work ratio: 2.0 on vec_sharded while both rounds rebuild"),
    _seconds("vec.build.overlay_s", "incl/vec.build:random_overlay", setup=True),
    _seconds("vec.build.bfs_s", "incl/vec.build:bfs_tree", setup=True),
    _seconds("vec.build.zipf_s", "incl/workload:zipf_global_values", setup=True),
    _seconds("vec.build.scatter_s", "incl/vec.build:scatter_workload", setup=True),
    _seconds("vec.build.total_s", "incl/vec.build:build_table", setup=True,
             moves="wall_s on vec_sharded; setup_s (not wall_s) on vec_protocol"),
    _self("vec.build", "wall_s on vec_sharded"),
    _self("vec.state", "wall_s on vec_protocol"),
    _seconds("vec.engine.totals_s", "incl/vec.engine:grand_totals"),
    _seconds("vec.engine.group_aggregate_s", "incl/vec.engine:group_aggregate"),
    _seconds("vec.engine.candidate_rows_s", "incl/vec.engine:candidate_rows"),
    _seconds("vec.engine.subtree_dedup_s", "incl/vec.engine:subtree_candidate_pairs"),
    _seconds("vec.engine.candidate_values_s", "incl/vec.engine:candidate_global_values"),
    _count("vec.engine.pairs_sent", "c/vec.engine.pairs_sent"),
    _self("vec.engine", "wall_s on vec_protocol (nearly all of it); a third of vec_sharded"),
    _count("vec.netfilter.runs", "n/vec.netfilter:VecNetFilter.run"),
    _self("vec.netfilter", "wall_s on vec_protocol"),
    _seconds("vec.shard.round_s", "incl/experiments.parallel:run_trials",
             moves="wall_s on vec_sharded"),
    _seconds("vec.shard.merge_s", "incl/vec.shard:run_sharded",
             "-incl/experiments.parallel:run_trials", moves="wall_s on vec_sharded"),
    _self("vec.shard", "wall_s on vec_sharded"),
    _self("experiments.parallel", "wall_s on vec_sharded"),
    # -- the benchmark itself and the simulated statistics -------------
    _seconds("op.self_s", "self/bench:op", moves="code under no wrapped callable"),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", ("incl/bench:op",),
                per=("run/untraced_wall_s",)),
    _seconds("import_s", "run/import_s"),
    LayerMetric("sim_bytes", "bytes", "lower", ("op/sim_bytes",), exact=True,
                moves="simulated: bytes the modelled network charged during one op"),
    LayerMetric("sim_time", "sim-s", "lower", ("op/sim_time",), exact=True,
                moves="simulated: modelled clock advanced by one op"),
)


def _total(facts: dict[str, float], keys: tuple[str, ...]) -> float:
    total = 0.0
    for key in keys:
        sign = -1.0 if key.startswith("-") else 1.0
        key = key.lstrip("-")
        if key.endswith("*"):
            prefix = key[:-1]
            total += sign * sum(v for k, v in facts.items() if k.startswith(prefix))
        else:
            total += sign * facts.get(key, 0.0)
    return total


def layer_value(
    metric: LayerMetric, setup_facts: dict[str, float], op_facts: list[dict[str, float]]
) -> float:
    """The metric's value over a traced run.

    Times are the median over the measured ops.  An exact metric is read
    from the first measured op — always the second op of a freshly built
    system, however many ops the run had time for — so it repeats from
    run to run.  A ``setup`` metric adds what the set-up pass did.
    """
    extra = _total(setup_facts, metric.keys) if metric.setup else 0.0
    values = []
    for facts in op_facts[:1] if metric.exact else op_facts:
        value = _total(facts, metric.keys) + extra
        if metric.per:
            below = _total(facts, metric.per)
            value = value / below if below else 0.0
        values.append(value)
    return median(values)
