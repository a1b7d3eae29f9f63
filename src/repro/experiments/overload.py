"""Flash-crowd overload harness: the query front door under fire.

The ISSUE-9 serving story, end to end: a :class:`~repro.frontdoor.FrontDoor`
fields a multi-tenant request stream whose arrival rate spikes by an
order of magnitude on flash-crowd rounds, while the fault DSL pours
trouble on the aggregation plane — periodic
:class:`~repro.faults.BurstLoss` windows on the wire and a scripted
**root crash** (with a later revival) that takes the session engine down
entirely for a stretch of rounds.

The harness asserts the front door's contract over *every* submitted
request:

* **universal termination** — each request ends in exactly one of
  ``COMMITTED`` / ``DEGRADED`` / ``REJECTED``, within the client
  timeout, with zero unhandled exceptions;
* **honest staleness** — a degraded answer's ``staleness`` never
  exceeds the requester's declared tolerance;
* **explicit rejection** — every rejection names a reason and (except
  exhausted budgets) a finite ``retry_after``;
* **replayability** — the full verdict stream is digested so two
  same-seed runs can be compared byte for byte.

Batching efficiency is measured against a baseline system (same seed,
same topology, same items) running one dedicated
:class:`~repro.core.netfilter.NetFilter` query: the summary's
``batching_gain`` is baseline bytes-per-query over the front door's
achieved bytes-per-terminal-request.  ``BENCH_frontdoor.json`` is
generated from these runs by ``benchmarks/bench_frontdoor.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter
from repro.errors import ConfigurationError, ExperimentError
from repro.faults import BurstLoss, CrashPeer, FaultInjector, FaultScenario, RevivePeer
from repro.faults.scenario import FaultAction
from repro.frontdoor import (
    COMMITTED,
    DEGRADED,
    REJECTED,
    FrontDoor,
    FrontDoorConfig,
    TenantPolicy,
)
from repro.hierarchy.builder import Hierarchy
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import TransportConfig
from repro.sim.engine import Simulation
from repro.workload.workload import Workload


@dataclass(frozen=True)
class OverloadConfig:
    """Everything one overload run needs; presets cover CI and the bench.

    Tenant zero is deliberately under-provisioned (a tight token bucket)
    and tenant one carries a finite byte budget, so rate-limit and
    budget rejections are exercised by construction, not by luck.
    """

    seed: int = 0
    rounds: int = 40
    n_peers: int = 24
    n_items: int = 1500
    skew: float = 1.0
    mean_degree: float = 4.0
    arrivals_per_round: int = 6
    flash_every: int = 10
    flash_multiplier: int = 12
    tenants: int = 4
    ratio_choices: tuple[float, ...] = (0.005, 0.01, 0.02, 0.05)
    burst_every: int = 8
    burst_duration: float = 25.0
    burst_probability: float = 0.3
    root_crash_round: int = 18
    root_revive_round: int = 24
    round_interval: float = 60.0
    session_deadline: float = 50.0
    client_timeout: float = 360.0
    max_queue_depth: int = 512
    max_batch: int = 256
    breaker_threshold: int = 2
    breaker_reset: float = 150.0
    tight_rate: float = 0.02
    tight_burst: float = 4.0
    byte_budget: float = 200_000.0
    default_rate: float = 0.5
    default_burst: float = 32.0
    max_staleness: int = 6
    filter_size: int = 300
    num_filters: int = 2

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ConfigurationError("rounds must be positive")
        if self.tenants < 1:
            raise ConfigurationError("at least one tenant is required")
        if not self.ratio_choices:
            raise ConfigurationError("ratio_choices must not be empty")
        if 0 <= self.root_crash_round <= self.root_revive_round >= self.rounds:
            raise ConfigurationError(
                "root_revive_round must fall inside the run so the recovery "
                "arc is observed"
            )

    @classmethod
    def smoke(cls, seed: int = 0) -> "OverloadConfig":
        """The CI cell: flash crowds x burst loss x a root crash arc."""
        return cls(seed=seed)

    @classmethod
    def full(cls, seed: int = 0) -> "OverloadConfig":
        """The acceptance run: longer, larger, heavier flash crowds."""
        return cls(
            seed=seed,
            rounds=80,
            n_peers=32,
            arrivals_per_round=10,
            flash_multiplier=20,
            root_crash_round=36,
            root_revive_round=46,
        )


@dataclass
class OverloadResult:
    """One overload run's evidence: verdicts, round rows, replay digest."""

    config: OverloadConfig
    request_rows: list[dict[str, Any]]
    round_rows: list[dict[str, Any]]
    summary: dict[str, Any]
    digest: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "config": {
                "seed": self.config.seed,
                "rounds": self.config.rounds,
                "n_peers": self.config.n_peers,
                "arrivals_per_round": self.config.arrivals_per_round,
                "flash_multiplier": self.config.flash_multiplier,
                "tenants": self.config.tenants,
                "root_crash_round": self.config.root_crash_round,
                "burst_probability": self.config.burst_probability,
            },
            "digest": self.digest,
            "summary": self.summary,
            "rounds": self.round_rows,
        }


def _policies(config: OverloadConfig) -> dict[str, TenantPolicy]:
    policies = {
        "t0": TenantPolicy(
            rate=config.tight_rate,
            burst=config.tight_burst,
            max_staleness=config.max_staleness,
        ),
    }
    if config.tenants > 1:
        policies["t1"] = TenantPolicy(
            rate=config.default_rate,
            burst=config.default_burst,
            byte_budget=config.byte_budget,
            max_staleness=config.max_staleness,
        )
    return policies


def _fault_scenario(config: OverloadConfig, base: float) -> FaultScenario:
    """BurstLoss windows phased to hit live sessions, plus the scripted
    root crash/revive arc (no hierarchy maintenance here — the crash
    takes the service down until the revival, which is the point)."""
    actions: list[FaultAction] = []
    if config.burst_every > 0:
        for k in range(config.burst_every, config.rounds, config.burst_every):
            actions.append(
                BurstLoss(
                    start=base + k * config.round_interval + 1.0,
                    duration=config.burst_duration,
                    probability=config.burst_probability,
                )
            )
    if config.root_crash_round >= 0:
        actions.append(
            CrashPeer(peer=0, at=base + config.root_crash_round * config.round_interval + 0.5)
        )
        actions.append(
            RevivePeer(peer=0, at=base + config.root_revive_round * config.round_interval + 0.5)
        )
    return FaultScenario(name="overload", actions=tuple(actions))


def _baseline_bytes_per_query(config: OverloadConfig) -> float:
    """What one request costs without the front door: a dedicated
    netFilter run on an identical fresh system, at the *smallest* ratio
    any tenant asks for (the cheapest-possible dedicated answer is the
    conservative comparison)."""
    sim = Simulation(seed=config.seed)
    network, hierarchy = _build_system(sim, config)
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    NetFilter(
        NetFilterConfig(
            filter_size=config.filter_size,
            num_filters=config.num_filters,
            threshold_ratio=min(config.ratio_choices),
        )
    ).run(engine)
    return float(network.accounting.total_bytes())


def _door_filter(config: OverloadConfig | FloodConfig) -> NetFilterConfig:
    """The front door's filter shape (``g``, ``f``).  The door runs each
    batch at that batch's own minimum ratio; this config's ratio is never
    read, so it states none of the requests' ratios."""
    return NetFilterConfig(
        filter_size=config.filter_size, num_filters=config.num_filters, threshold_ratio=1.0
    )


def _build_system(
    sim: Simulation, config: OverloadConfig
) -> tuple[Network, Hierarchy]:
    topology = Topology.random_connected(
        config.n_peers, config.mean_degree, sim.rng.stream("topology")
    )
    network = Network(
        sim,
        topology,
        transport_config=TransportConfig(latency=1.0, latency_jitter=0.3),
    )
    workload = Workload.zipf(
        n_items=config.n_items,
        n_peers=config.n_peers,
        skew=config.skew,
        rng=sim.rng.stream("workload"),
    )
    network.assign_items(workload.item_sets)
    return network, Hierarchy.build(network, root=0)


def _collect_verdicts(
    door: FrontDoor,
    expected_tolerance: dict[int, int],
    client_timeout: float,
    round_interval: float,
) -> tuple[list[dict[str, Any]], list[float], dict[str, int], str]:
    """Walk every submitted request, enforce the front-door contract
    (termination, honest staleness, named rejections, bounded latency),
    and fold the verdict stream into a replay digest."""
    digest = hashlib.sha256()
    request_rows: list[dict[str, Any]] = []
    latencies: list[float] = []
    reasons: dict[str, int] = {}
    for request_id in sorted(door.records):
        record = door.records[request_id]
        if not record.terminal:
            raise ExperimentError(
                f"request {request_id} never terminated (tenant "
                f"{record.tenant}, submitted at {record.submitted_at})"
            )
        if record.status not in (COMMITTED, DEGRADED, REJECTED):
            raise ExperimentError(
                f"request {request_id} ended in unknown status "
                f"{record.status!r}"
            )
        if record.status == REJECTED and not record.reason:
            raise ExperimentError(f"request {request_id} rejected without a reason")
        if record.status == DEGRADED:
            tolerance = expected_tolerance[request_id]
            if record.staleness > tolerance or record.staleness <= 0:
                raise ExperimentError(
                    f"request {request_id}: degraded staleness "
                    f"{record.staleness} outside (0, {tolerance}]"
                )
        if record.status in (COMMITTED, DEGRADED) and record.items is None:
            raise ExperimentError(f"request {request_id} answered without items")
        if record.latency > client_timeout + 2 * round_interval:
            raise ExperimentError(
                f"request {request_id} took {record.latency} — past the "
                f"client timeout plus a round of slack"
            )
        row = record.as_row()
        request_rows.append(row)
        latencies.append(record.latency)
        if record.status == REJECTED:
            reasons[record.reason] = reasons.get(record.reason, 0) + 1
        items = record.items
        pairs = (
            ""
            if items is None
            else ",".join(
                f"{item}:{value}"
                for item, value in zip(items.ids.tolist(), items.values.tolist())
            )
        )
        digest.update(
            (
                f"{row['request_id']}|{row['tenant']}|{row['status']}|"
                f"{row['reason']}|{row['staleness']}|{row['threshold']}|"
                f"{record.latency!r}|{pairs}\n"
            ).encode()
        )
    return request_rows, latencies, reasons, digest.hexdigest()


def _percentile(latencies: list[float], q: float) -> float:
    if not latencies:
        return 0.0
    index = min(int(q * len(latencies)), len(latencies) - 1)
    return round(latencies[index], 3)


def run_overload(
    config: OverloadConfig, trace_path: str | None = None
) -> OverloadResult:
    """Run one overload experiment; raises :class:`ExperimentError` on
    any contract breach.  Deterministic: same config, same digest.

    ``trace_path`` streams the run's JSONL telemetry trace to a file —
    the CI overload cell points it at the fault-trace artifact directory
    so a failing run leaves its full event history behind.
    """
    sim = Simulation(seed=config.seed)
    if trace_path is None:
        return _run_overload(sim, config)
    sim.telemetry.attach_jsonl(trace_path)
    try:
        return _run_overload(sim, config)
    finally:
        sim.telemetry.close()


def _run_overload(sim: Simulation, config: OverloadConfig) -> OverloadResult:
    network, hierarchy = _build_system(sim, config)
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    door = FrontDoor(
        engine,
        _door_filter(config),
        FrontDoorConfig(
            round_interval=config.round_interval,
            session_deadline=config.session_deadline,
            client_timeout=config.client_timeout,
            max_queue_depth=config.max_queue_depth,
            max_batch=config.max_batch,
            breaker_threshold=config.breaker_threshold,
            breaker_reset=config.breaker_reset,
            default_policy=TenantPolicy(
                rate=config.default_rate,
                burst=config.default_burst,
                max_staleness=config.max_staleness,
            ),
        ),
        policies=_policies(config),
    )
    base = sim.now
    FaultInjector(network, _fault_scenario(config, base)).install()

    # ------------------------------------------------------------------
    # The arrival stream: every round draws (tenant, requester, ratio)
    # tuples from a dedicated RNG stream; flash-crowd rounds multiply the
    # draw count.  Tolerances vary so both fresh-only and staleness-
    # tolerant requests exist at every point of the run.
    # ------------------------------------------------------------------
    arrivals = sim.rng.stream("overload.arrivals")
    tenant_names = [f"t{k}" for k in range(config.tenants)]
    requesters = [peer for peer in sorted(network.nodes) if peer != 0]
    tolerances = (0, config.max_staleness // 2, config.max_staleness)
    expected_tolerance: dict[int, int] = {}

    for k in range(config.rounds):
        count = config.arrivals_per_round
        if config.flash_every > 0 and k > 0 and k % config.flash_every == 0:
            count *= config.flash_multiplier
        for _ in range(count):
            tenant = tenant_names[int(arrivals.integers(len(tenant_names)))]
            requester = requesters[int(arrivals.integers(len(requesters)))]
            ratio = config.ratio_choices[
                int(arrivals.integers(len(config.ratio_choices)))
            ]
            tolerance = tolerances[int(arrivals.integers(len(tolerances)))]
            request_id = door.submit(tenant, requester, ratio, tolerance)
            expected_tolerance[request_id] = tolerance
        door.run(base + (k + 1) * config.round_interval)
    door.drain()

    request_rows, latencies, reasons, digest = _collect_verdicts(
        door, expected_tolerance, config.client_timeout, config.round_interval
    )
    counts = door.status_counts()
    total = len(request_rows)
    answered = counts[COMMITTED] + counts[DEGRADED]
    total_bytes = float(network.accounting.total_bytes())
    bytes_per_query = total_bytes / max(total, 1)
    baseline = _baseline_bytes_per_query(config)
    latencies.sort()
    counters = sim.trace.counters
    summary: dict[str, Any] = {
        "requests": total,
        "committed": counts[COMMITTED],
        "degraded": counts[DEGRADED],
        "rejected": counts[REJECTED],
        "answer_rate": round(answered / max(total, 1), 4),
        "shed_rate": round(counts[REJECTED] / max(total, 1), 4),
        "reject_reasons": {name: reasons[name] for name in sorted(reasons)},
        "cache_hits": door.cache.hits,
        "sessions": sum(1 for row in door.round_rows if row["batched"]),
        "session_failures": sum(
            1 for row in door.round_rows if row["batched"] and not row["committed"]
        ),
        "p50_latency": _percentile(latencies, 0.50),
        "p99_latency": _percentile(latencies, 0.99),
        "total_bytes": total_bytes,
        "bytes_per_query": round(bytes_per_query, 2),
        "baseline_bytes_per_query": round(baseline, 2),
        "batching_gain": round(baseline / max(bytes_per_query, 1e-9), 2),
        "breaker_trips": int(counters.get("frontdoor.breaker", 0)),
        "faults_injected": int(counters.get("fault.injected", 0)),
    }
    if answered == 0:
        raise ExperimentError("overload run answered no request at all")
    return OverloadResult(
        config=config,
        request_rows=request_rows,
        round_rows=door.round_rows,
        summary=summary,
        digest=digest,
    )


# ----------------------------------------------------------------------
# The flood harness: N requests open at once (the bench's load axis).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FloodConfig:
    """One flood cell: ``open_requests`` queries submitted in a single
    instant against a calm network — the pure load-axis measurement the
    benchmark sweeps from 1k to 100k.

    Tenants here are provisioned so the *rate* limiter never fires (the
    burst allowance covers each tenant's whole share): every rejection
    is queue-depth shedding, which is the overload story being measured.
    """

    seed: int = 0
    open_requests: int = 1000
    tenants: int = 8
    n_peers: int = 24
    n_items: int = 1500
    skew: float = 1.0
    mean_degree: float = 4.0
    ratio_choices: tuple[float, ...] = (0.005, 0.01, 0.02, 0.05)
    round_interval: float = 60.0
    session_deadline: float = 50.0
    client_timeout: float = 360.0
    max_queue_depth: int = 1024
    max_batch: int = 256
    max_staleness: int = 8
    filter_size: int = 300
    num_filters: int = 2

    def __post_init__(self) -> None:
        if self.open_requests <= 0:
            raise ConfigurationError("open_requests must be positive")
        if self.tenants < 1:
            raise ConfigurationError("at least one tenant is required")


@dataclass
class FloodResult:
    """One flood cell's evidence and throughput numbers."""

    config: FloodConfig
    summary: dict[str, Any]
    digest: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "config": {
                "seed": self.config.seed,
                "open_requests": self.config.open_requests,
                "tenants": self.config.tenants,
                "n_peers": self.config.n_peers,
                "max_queue_depth": self.config.max_queue_depth,
                "max_batch": self.config.max_batch,
            },
            "digest": self.digest,
            "summary": self.summary,
        }


def run_flood(config: FloodConfig) -> FloodResult:
    """Submit ``open_requests`` queries at one instant and drain them.

    Raises :class:`ExperimentError` on any front-door contract breach.
    Deterministic: same config, same digest.
    """
    sim = Simulation(seed=config.seed)
    network, hierarchy = _build_system(
        sim,
        OverloadConfig(
            seed=config.seed,
            n_peers=config.n_peers,
            n_items=config.n_items,
            skew=config.skew,
            mean_degree=config.mean_degree,
        ),
    )
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    share = -(-config.open_requests // config.tenants)
    door = FrontDoor(
        engine,
        _door_filter(config),
        FrontDoorConfig(
            round_interval=config.round_interval,
            session_deadline=config.session_deadline,
            client_timeout=config.client_timeout,
            max_queue_depth=config.max_queue_depth,
            max_batch=config.max_batch,
            default_policy=TenantPolicy(
                rate=1.0, burst=float(share), max_staleness=config.max_staleness
            ),
        ),
    )
    arrivals = sim.rng.stream("flood.arrivals")
    requesters = [peer for peer in sorted(network.nodes) if peer != 0]
    tolerances = (0, config.max_staleness // 2, config.max_staleness)
    expected_tolerance: dict[int, int] = {}
    started = sim.now
    for k in range(config.open_requests):
        tenant = f"t{k % config.tenants}"
        requester = requesters[int(arrivals.integers(len(requesters)))]
        ratio = config.ratio_choices[int(arrivals.integers(len(config.ratio_choices)))]
        tolerance = tolerances[int(arrivals.integers(len(tolerances)))]
        request_id = door.submit(tenant, requester, ratio, tolerance)
        expected_tolerance[request_id] = tolerance
    door.run(started + config.round_interval)
    door.drain()
    elapsed = sim.now - started

    _, latencies, reasons, digest = _collect_verdicts(
        door, expected_tolerance, config.client_timeout, config.round_interval
    )
    counts = door.status_counts()
    total = config.open_requests
    answered = counts[COMMITTED] + counts[DEGRADED]
    total_bytes = float(network.accounting.total_bytes())
    bytes_per_query = total_bytes / total
    baseline = _baseline_bytes_per_query(
        OverloadConfig(
            seed=config.seed,
            n_peers=config.n_peers,
            n_items=config.n_items,
            skew=config.skew,
            mean_degree=config.mean_degree,
            ratio_choices=config.ratio_choices,
            filter_size=config.filter_size,
            num_filters=config.num_filters,
        )
    )
    latencies.sort()
    if answered == 0:
        raise ExperimentError("flood run answered no request at all")
    summary: dict[str, Any] = {
        "open_requests": total,
        "committed": counts[COMMITTED],
        "degraded": counts[DEGRADED],
        "rejected": counts[REJECTED],
        "answer_rate": round(answered / total, 4),
        "shed_rate": round(counts[REJECTED] / total, 4),
        "reject_reasons": {name: reasons[name] for name in sorted(reasons)},
        "cache_hits": door.cache.hits,
        "sessions": sum(1 for row in door.round_rows if row["batched"]),
        "p50_latency": _percentile(latencies, 0.50),
        "p99_latency": _percentile(latencies, 0.99),
        "sim_elapsed": round(elapsed, 3),
        "queries_per_sim_sec": round(total / max(elapsed, 1e-9), 3),
        "total_bytes": total_bytes,
        "bytes_per_query": round(bytes_per_query, 2),
        "baseline_bytes_per_query": round(baseline, 2),
        "batching_gain": round(baseline / max(bytes_per_query, 1e-9), 2),
    }
    return FloodResult(config=config, summary=summary, digest=digest)
