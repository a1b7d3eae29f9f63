"""Remote peers query a standing monitor through the query front door.

A :class:`MonitorService` reruns netFilter every epoch over a drifting
Zipf stream.  Between epochs, peers ``submit`` queries to the front door
on the root, which is fed by the monitor: a request at or above the
monitor's ratio is carved from the monitor's newest answer without any
new aggregation session, and a request below it gets a fresh shared
session.  In one epoch an interior peer is down, the monitor cannot
commit, and the cached answer ages: tolerant tenants get it as DEGRADED
with an honest staleness (in front-door rounds), strict ones are turned
away.

The script checks its own answers and exits non-zero unless every
COMMITTED answer equals the oracle's frequent set at the request's own
ratio and every DEGRADED answer carries a staleness above zero.

Run:  python examples/monitor_frontdoor.py
"""

from __future__ import annotations

import sys

from repro import (
    AggregationEngine,
    ContinuousNetFilter,
    Hierarchy,
    NetFilterConfig,
    Network,
    Simulation,
    Topology,
    Workload,
    ZipfStream,
    oracle_frequent_items,
)
from repro.core.config import ceil_threshold
from repro.core.oracle import oracle_global_values
from repro.frontdoor import COMMITTED, DEGRADED, REJECTED, FrontDoor, FrontDoorConfig
from repro.service import MonitorService, ServiceConfig

N_PEERS, N_ITEMS, EPOCHS = 60, 3000, 5
#: The epoch in which an interior peer is down (revived before the next).
OUTAGE_EPOCH = 3
#: Requests fired after every epoch: (tenant, threshold ratio, tolerance).
REQUESTS = (
    ("dashboard", 0.02, 0),   # fresh answers only
    ("analyst", 0.05, 12),    # tolerates a stale answer (in rounds)
)
#: Below the monitor's ratio, so it needs a fresh session; first and last epoch.
AUDIT = ("audit", 0.005, 0)


def build(seed: int):
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(N_PEERS, 4.0, sim.rng.stream("topology"))
    network = Network(sim, topology)
    workload = Workload.zipf(N_ITEMS, N_PEERS, 1.0, sim.rng.stream("workload"))
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    stream = ZipfStream(
        n_items=N_ITEMS,
        n_peers=N_PEERS,
        skew=1.0,
        instances_per_epoch=N_ITEMS,
        rng=sim.rng.stream("stream"),
        drift_per_epoch=300,
    )
    return sim, network, hierarchy, engine, stream


def exact(network: Network, ratio: float, items, threshold: int) -> bool:
    """Does an answer equal the oracle's frequent set at ``ratio``?"""
    truth_threshold = ceil_threshold(ratio, oracle_global_values(network).total_value)
    truth = oracle_frequent_items(network, truth_threshold)
    return threshold == truth_threshold and items == truth


def main() -> int:
    sim, network, hierarchy, engine, stream = build(seed=5)
    config = NetFilterConfig(filter_size=150, num_filters=3, threshold_ratio=0.01)
    service = MonitorService(ContinuousNetFilter(config, engine), ServiceConfig())
    door = FrontDoor(engine, config, FrontDoorConfig(), monitor=service)
    # Which cache entry served each cache hit ("monitor" or "session").
    sources: dict[int, str] = {}

    def note_source(record) -> None:
        sources[record.fields["request"]] = record.fields["source"]

    sim.trace.subscribe("frontdoor.cache_hit", note_source)
    interior = min(
        peer for peer in hierarchy.children_of(hierarchy.root) if hierarchy.children_of(peer)
    )
    requesters = hierarchy.leaves()

    print(f"Monitoring {N_ITEMS} items over {N_PEERS} peers: one epoch every "
          f"{service.config.epoch_interval:.0f} s, front-door rounds every "
          f"{door.config.round_interval:.0f} s, monitor ratio {config.threshold_ratio}\n")
    print(f"{'epoch':>5}  {'monitor':<9} {'tenant':<10} {'ratio':>6} {'verdict':<22} "
          f"{'staleness':>9} {'served from':<12} {'items':>5}  exact")
    violations: list[str] = []
    from_monitor = 0
    for epoch in range(EPOCHS):
        if epoch == OUTAGE_EPOCH:
            network.fail_peer(interior)
        elif epoch == OUTAGE_EPOCH + 1:
            network.revive_peer(interior)
        next_slot = sim.now + service.config.epoch_interval
        (outcome,) = service.run(1, before_epoch=lambda _: stream.apply_to(network))
        answer = outcome.answer
        monitor_state = "committed" if outcome.committed else "degraded"
        requests = REQUESTS + ((AUDIT,) if epoch in (0, EPOCHS - 1) else ())
        ids = [
            door.submit(tenant, requesters[(epoch + k) % len(requesters)], ratio, tolerance)
            for k, (tenant, ratio, tolerance) in enumerate(requests)
        ]
        door.drain()
        door.run(next_slot)
        for request_id in ids:
            record = door.outcome(request_id)
            source = sources.get(request_id, "session" if record.status == COMMITTED else "-")
            verdict = f"{record.status} ({record.reason})" if record.reason else record.status
            n_items = str(len(record.items)) if record.status != REJECTED else "-"
            check = "-"
            if record.status == COMMITTED:
                ok = exact(network, record.threshold_ratio, record.items, record.threshold)
                check = str(ok)
                if not ok:
                    violations.append(f"request {request_id}: COMMITTED answer is not exact")
            if record.status == DEGRADED and record.staleness <= 0:
                violations.append(f"request {request_id}: DEGRADED without staleness")
            if source == "monitor":
                from_monitor += 1
            print(f"{epoch:>5}  {monitor_state:<9} {record.tenant:<10} "
                  f"{record.threshold_ratio:>6} {verdict:<22} {record.staleness:>9} "
                  f"{source:<12} {n_items:>5}  {check}")
        print(f"       (monitor answer: committed epoch {answer.committed_epoch}, "
              f"staleness {answer.staleness_epochs} epoch(s))")

    print(f"\n{from_monitor} request(s) were carved from the monitor's cached answer "
          f"without a new session.")
    if from_monitor == 0:
        violations.append("no request was served from the monitor cache")
    for violation in violations:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
