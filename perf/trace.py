"""The benchmark's own tracing: in-memory spans around the public
callables of each layer of ``repro``.

Nothing here touches the program's sources.  :func:`tracing` swaps the
callables listed in :func:`_targets` for recording wrappers (methods on
their class, module-level functions in every module of ``sys.modules``
that holds the original object) and puts the originals back on exit.  A
wrapper appends ``(name, start, end, parent)`` to a :class:`SpanLog`; the
per-layer numbers are computed from the log after the op, outside the
timed region.

A layer is the ``repro`` module a callable lives in; a span is named
``<layer>:<callable>``.  Code below a wrapped callable that is not itself
wrapped is charged to the nearest enclosing span, and code under no
wrapped callable to the root span — so self-times telescope: per root,
the sum of every span's self time equals the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.aggregation.combiners import Combiner
from repro.metrics.registry import CounterMetric

Hook = Callable[..., Any]


class SpanLog:
    """Spans of one traced root (a set-up pass, an op, or its check).

    The columns are parallel lists indexed by span id.  An id is taken
    when the span opens, so a parent's id is smaller than its children's.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.current = -1
        #: Spans and hook counts of the root as it closed; what wrapped
        #: callables do after that (an op's untimed check) stays out.
        self.closed_size = 0
        self.closed_counts: dict[str, int] = {}
        #: Counts taken by wrapper hooks at the same boundaries as spans.
        self.counts: Counter[str] = Counter()
        #: Every ``Simulation`` constructed while tracing is on, so the
        #: program's own counters can be read at op boundaries.
        self.sims: list[Any] = []

    def intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def clear(self) -> None:
        # In place: the wrappers hold references to the column lists.
        for column in (self.name_id, self.parent, self.start, self.end):
            column.clear()
        self.counts.clear()
        self.current = -1

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Record everything inside the block under one fresh root span."""
        self.clear()
        self.name_id.append(self.intern(name))
        self.parent.append(-1)
        self.end.append(0.0)
        self.current = 0
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[0] = perf_counter()
            self.current = -1
            self.closed_size = len(self.start)
            self.closed_counts = dict(self.counts)

    def facts(self) -> dict[str, float]:
        """Aggregate the last closed root: ``self/<span>`` and
        ``incl/<span>`` seconds, ``n/<span>`` span counts and
        ``c/<counter>`` hook counts.

        ``incl`` double-counts a span nested under one of the same name;
        the metrics that use it name callables that never nest.
        """
        size = self.closed_size
        name_id = np.asarray(self.name_id[:size], dtype=np.int64)
        parent = np.asarray(self.parent[:size], dtype=np.int64)
        duration = np.asarray(self.end[:size]) - np.asarray(self.start[:size])
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        names = len(self.names)
        columns = {
            "self/": np.bincount(name_id, weights=duration - covered, minlength=names),
            "incl/": np.bincount(name_id, weights=duration, minlength=names),
            "n/": np.bincount(name_id, minlength=names),
        }
        facts: dict[str, float] = {}
        for index in np.flatnonzero(columns["n/"]):
            for prefix, column in columns.items():
                facts[prefix + self.names[index]] = float(column[index])
        for key, value in self.closed_counts.items():
            facts["c/" + key] = float(value)
        return facts

    def spans(self) -> Iterator[dict[str, Any]]:
        """The last closed root's raw spans, for writing out."""
        for sid, name_id in enumerate(self.name_id[: self.closed_size]):
            yield {
                "id": sid,
                "name": self.names[name_id],
                "start": self.start[sid],
                "end": self.end[sid],
                "parent": self.parent[sid],
            }


def sim_counters(sims: Iterable[Any]) -> Counter[str]:
    """The program's own counters, summed over ``sims``: tracer emit
    counts (``trace:<kind>``), registry counters (``reg:<name>``) and
    heap compactions."""
    total: Counter[str] = Counter()
    for sim in sims:
        for kind, count in sim.trace.counters.items():
            total["trace:" + kind] += count
        registry = sim.telemetry.registry
        for name in registry.names():
            metric = registry.get(name)
            if isinstance(metric, CounterMetric):
                total["reg:" + name] += metric.value
        total["compactions"] += sim.heap_compactions
    return total


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
class Target(NamedTuple):
    """One public callable to wrap: ``repro.<module>``, the dotted path
    inside it (``Class.method`` or ``function``), and the optional hooks.

    ``pre(counts, args) -> args`` may count and replace the positional
    arguments; ``post(counts, args, result)`` counts from the outcome;
    ``tag(args)`` gives a suffix that splits the span name by argument.
    """

    layer: str
    module: str
    path: str
    pre: Hook | None = None
    post: Hook | None = None
    tag: Hook | None = None


def _traced(
    log: SpanLog,
    fn: Callable[..., Any],
    name: str,
    pre: Hook | None = None,
    post: Hook | None = None,
    tag: Hook | None = None,
) -> Callable[..., Any]:
    name_ids, parents, starts, ends = log.name_id, log.parent, log.start, log.end
    fixed = log.intern(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if pre is not None:
            args = pre(log.counts, args)
        sid = len(starts)
        name_ids.append(fixed if tag is None else log.intern(f"{name}[{tag(args)}]"))
        parents.append(log.current)
        ends.append(0.0)
        log.current = sid
        starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[sid] = perf_counter()
            log.current = parents[sid]
        if post is not None:
            post(log.counts, args, result)
        return result

    return wrapper


def _tally_pairs(counts: Counter[str], sets: Iterable[Any]) -> Iterator[Any]:
    for item_set in sets:
        counts["items.pairs_in"] += len(item_set)
        yield item_set


def _targets(log: SpanLog) -> list[Target]:
    """Every wrapped callable, layer by layer (the README's table)."""

    def add(key: str, amount: Callable[[tuple[Any, ...], Any], Any]) -> Hook:
        def post(counts: Counter[str], args: tuple[Any, ...], result: Any) -> None:
            counts[key] += int(amount(args, result))

        return post

    def trace_handler(counts: Counter[str], args: tuple[Any, ...]) -> tuple[Any, ...]:
        # Transport inlines ``Node.deliver``, so the dispatch boundary is
        # taken where handlers are registered.  Heartbeat handling is
        # charged to its own layer, every other handler to ``net.node``.
        node, payload_type, handler = args
        kind = payload_type.__name__.split("@")[0]
        layer = "net.heartbeat" if kind == "HeartbeatPayload" else "net.node"
        return node, payload_type, _traced(log, handler, f"{layer}:handler[{kind}]")

    def tally_sets(counts: Counter[str], args: tuple[Any, ...]) -> tuple[Any, ...]:
        return (_tally_pairs(counts, args[0]), *args[1:])

    def tally_self(counts: Counter[str], args: tuple[Any, ...]) -> tuple[Any, ...]:
        counts["items.pairs_in"] += len(args[0])
        return args

    def register_sim(counts: Counter[str], args: tuple[Any, ...], result: Any) -> None:
        log.sims.append(args[0])

    events = add("sim.engine.events", lambda args, fired: fired)
    spec_of_handle = lambda args: args[1].spec.name  # noqa: E731
    return [
        Target("sim.engine", "sim.engine", "Simulation.__init__", post=register_sim),
        Target("sim.engine", "sim.engine", "Simulation.run", post=events),
        Target("sim.engine", "sim.engine", "Simulation.step", post=events),
        Target("net.transport", "net.node", "Node.send"),
        Target("net.node", "net.node", "Node.deliver"),
        Target("net.node", "net.node", "Node.register_handler", pre=trace_handler),
        Target("aggregation.hierarchical", "aggregation.hierarchical",
               "AggregationEngine.__init__"),
        Target("aggregation.hierarchical", "aggregation.hierarchical",
               "AggregationEngine.start", tag=lambda args: args[1].name),
        Target("aggregation.hierarchical", "aggregation.hierarchical",
               "AggregationEngine.drive_session", tag=spec_of_handle,
               post=add("aggregation.hierarchical.failed_sessions",
                        lambda args, handle: handle.failed or not handle.done)),
        Target("aggregation.hierarchical", "aggregation.hierarchical",
               "AggregationEngine.dead_root_session",
               post=add("aggregation.hierarchical.failed_sessions", lambda args, _: 1)),
        Target("core.filters", "core.filters", "HashFilter.group_of",
               post=add("core.filters.items_hashed", lambda args, _: len(args[1]))),
        Target("core.filters", "core.filters", "FilterBank.local_group_aggregates"),
        Target("core.filters", "core.filters", "FilterBank.candidate_mask"),
        Target("core.verification", "core.verification", "materialize_candidates"),
        Target("core.verification", "core.verification", "HeavyGroups.from_aggregate"),
        Target("items", "items.itemset", "LocalItemSet.merge"),
        Target("items", "items.itemset", "LocalItemSet.merge_many", pre=tally_sets),
        Target("items", "items.itemset", "LocalItemSet.select", pre=tally_self),
        Target("items", "items.itemset", "LocalItemSet.filter_values"),
        Target("items", "items.itemset", "FadedItemSet.merge"),
        Target("items", "items.itemset", "FadedItemSet.merge_faded", pre=tally_sets),
        Target("items", "items.itemset", "FadedItemSet.select", pre=tally_self),
        Target("telemetry", "sim.trace", "Tracer.emit"),
        Target("telemetry", "telemetry.core", "Telemetry.emit"),
        Target("telemetry", "telemetry.core", "Telemetry.span"),
        Target("telemetry", "telemetry.spans", "SpanTracker.open",
               post=add("telemetry.spans", lambda args, sid: sid != 0)),
        Target("telemetry", "telemetry.spans", "SpanTracker.close"),
        Target("metrics", "metrics.accounting", "CostAccounting.record"),
        Target("metrics", "metrics.accounting", "CostAccounting.bytes_by_category"),
        Target("metrics", "metrics.registry", "CounterMetric.inc"),
        Target("metrics", "metrics.registry", "GaugeMetric.inc"),
        Target("metrics", "metrics.registry", "HistogramMetric.observe"),
        Target("metrics", "metrics.registry", "TimerMetric.observe"),
        Target("net.overlay", "net.overlay", "Topology.random_connected"),
        Target("workload", "workload.workload", "Workload.zipf"),
        Target("workload", "workload.zipf", "zipf_global_values"),
        Target("net.network", "net.network", "Network.__init__"),
        Target("net.network", "net.network", "Network.assign_items"),
        Target("hierarchy.builder", "hierarchy.builder", "Hierarchy.build"),
        Target("core.oracle", "core.oracle", "oracle_frequent_items"),
        Target("service.monitor", "service.monitor", "MonitorService.run_one",
               post=lambda counts, args, outcome: counts.update({
                   "service.monitor.commits": int(outcome.committed),
                   "service.monitor.degraded": int(outcome.answer.degraded),
                   "service.monitor.attempts": outcome.attempts,
               })),
        Target("service.monitor", "service.monitor", "MonitorService.answer"),
        Target("core.continuous", "core.continuous", "ContinuousNetFilter.begin_attempt"),
        Target("core.continuous", "core.continuous", "EpochAttempt.fold"),
        Target("core.continuous", "core.continuous", "EpochAttempt.commit"),
        Target("core.continuous", "core.continuous", "EpochAttempt.abandon"),
        Target("net.heartbeat", "net.heartbeat", "HeartbeatService.beat_now"),
        Target("workload.streams", "workload.streams", "ZipfStream.next_epoch"),
        Target("frontdoor.service", "frontdoor.service", "FrontDoor.submit"),
        Target("frontdoor.service", "frontdoor.service", "FrontDoor.run"),
        Target("frontdoor.service", "frontdoor.service", "FrontDoor.drain"),
        Target("frontdoor.admission", "frontdoor.admission", "AdmissionController.decide",
               post=add("frontdoor.admission.rejects",
                        lambda args, verdict: not verdict.admitted)),
        Target("frontdoor.admission", "frontdoor.admission", "AdmissionController.charge"),
        Target("frontdoor.batching", "frontdoor.batching", "BatchSessionRunner.run",
               post=add("frontdoor.batching.retries",
                        lambda args, outcome: outcome.attempts - 1)),
        Target("frontdoor.batching", "frontdoor.batching", "BatchOutcome.carve"),
        Target("frontdoor.cache", "frontdoor.cache", "AnswerCache.lookup",
               post=add("frontdoor.cache.hits", lambda args, hit: hit is not None)),
        Target("frontdoor.cache", "frontdoor.cache", "AnswerCache.put_session"),
        Target("frontdoor.cache", "frontdoor.cache", "AnswerCache.put_monitor"),
        Target("vec.build", "vec.build", "build_table"),
        Target("vec.build", "vec.build", "random_overlay"),
        Target("vec.build", "vec.build", "bfs_tree"),
        Target("vec.build", "vec.build", "scatter_workload"),
        Target("vec.state", "vec.state", "PeerTable.reachable_mask"),
        Target("vec.state", "vec.state", "PeerTable.reachable_height"),
        Target("vec.state", "vec.state", "PeerTable.level_order"),
        Target("vec.engine", "vec.engine", "grand_totals"),
        Target("vec.engine", "vec.engine", "group_aggregate"),
        Target("vec.engine", "vec.engine", "candidate_rows"),
        Target("vec.engine", "vec.engine", "subtree_candidate_pairs",
               post=add("vec.engine.pairs_sent", lambda args, result: result[0])),
        Target("vec.engine", "vec.engine", "candidate_global_values"),
        Target("vec.engine", "vec.engine", "phase_bytes"),
        Target("vec.netfilter", "vec.netfilter", "VecNetFilter.run"),
        Target("vec.shard", "vec.shard", "run_sharded"),
        Target("experiments.parallel", "experiments.parallel", "run_trials"),
    ]


def _combiner_targets() -> Iterator[tuple[type, str]]:
    """``combine``/``size_bytes`` of every ``Combiner`` subclass that
    defines its own — reached through the public ABC, so a combiner added
    later is traced without touching this file."""
    pending = list(Combiner.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("combine", "size_bytes"):
            if attr in cls.__dict__:
                yield cls, attr


def _patch_method(
    log: SpanLog, owner: type, attr: str, name: str, undo: list, *hooks: Hook | None
) -> None:
    raw = owner.__dict__[attr]
    binding = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
    wrapped = _traced(log, raw.__func__ if binding else raw, name, *hooks)
    setattr(owner, attr, binding(wrapped) if binding else wrapped)
    undo.append((owner, attr, raw))


def _patch_function(
    log: SpanLog, module: Any, attr: str, name: str, undo: list, *hooks: Hook | None
) -> None:
    original = getattr(module, attr)
    wrapped = _traced(log, original, name, *hooks)
    # ``from repro.vec.build import build_table`` binds the object, not
    # the name: rebind it wherever it is held.
    for holder in list(sys.modules.values()):
        for key, value in list(getattr(holder, "__dict__", {}).items()):
            if value is original:
                setattr(holder, key, wrapped)
                undo.append((holder, key, original))


@contextmanager
def tracing(log: SpanLog) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for target in _targets(log):
            module = importlib.import_module("repro." + target.module)
            owner_name, _, attr = target.path.rpartition(".")
            patch = _patch_method if owner_name else _patch_function
            owner = getattr(module, owner_name) if owner_name else module
            name = f"{target.layer}:{target.path}"
            patch(log, owner, attr, name, undo, target.pre, target.post, target.tag)
        for cls, attr in _combiner_targets():
            _patch_method(log, cls, attr, f"aggregation.combiners:{attr}[{cls.__name__}]", undo)
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
        log.sims.clear()
