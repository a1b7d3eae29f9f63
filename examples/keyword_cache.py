"""Cache management via frequent keywords, with shared concurrent requests
(paper Table I row 1 + Section III-A.1).

Peers issue search queries; each peer counts, per keyword, how many of its
own queries contained it.  Several peers simultaneously want the globally
frequent keywords — each with a *different* threshold (a small cache wants
only the very hottest keywords, a large cache can hold more).  Instead of
running one netFilter per request, the requests go to the query front
door on the root, which serves the whole batch with a single run at the
minimum threshold and carves each requester its own slice — with exact
global counts, which is what cache replacement policies rank by.

Run:  python examples/keyword_cache.py
"""

from __future__ import annotations

from repro import (
    AggregationEngine,
    Hierarchy,
    NetFilterConfig,
    Network,
    Simulation,
    Topology,
)
from repro.frontdoor import FrontDoor
from repro.workload.applications import query_keyword_workload


def main() -> None:
    n_peers = 100

    sim = Simulation(seed=21)
    topology = Topology.random_connected(n_peers, 4.0, sim.rng.stream("topology"))
    network = Network(sim, topology)

    workload = query_keyword_workload(
        n_peers=n_peers,
        vocabulary_size=3000,
        queries_per_peer=60,
        rng=sim.rng.stream("workload"),
        skew=1.1,
    )
    network.assign_items(workload.item_sets)

    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy)
    front_door = FrontDoor(
        engine,
        NetFilterConfig(filter_size=150, num_filters=3, threshold_ratio=0.01),
    )

    # Three caches of different sizes ask simultaneously.
    leaves = hierarchy.leaves()
    caches = [
        (leaves[0], 0.02),   # small cache
        (leaves[1], 0.005),  # large cache
        (leaves[2], 0.01),   # medium cache
    ]
    request_ids = [
        front_door.submit("caches", leaf, ratio) for leaf, ratio in caches
    ]
    front_door.drain()

    (row,) = [row for row in front_door.round_rows if row["batched"]]
    shared = front_door.cache.entry("session")
    print(f"{row['batched']} concurrent requests served by ONE netFilter run "
          f"at the minimum ratio {shared.base_ratio}")
    print(f"(shared run: {row['session_attempts']} attempt(s), "
          f"{len(shared.frequent)} keywords over the minimum threshold, "
          f"{row['session_bytes'] / n_peers:.0f} bytes/peer)\n")
    for request_id in request_ids:
        record = front_door.outcome(request_id)
        keywords = record.items
        top = sorted(keywords, key=lambda pair: -pair[1])[:5]
        print(f"Peer {record.requester} (threshold ratio "
              f"{record.threshold_ratio}): {len(keywords)} cacheable keywords")
        for keyword, count in top:
            print(f"    keyword {keyword:>5}: appears in {count} queries")


if __name__ == "__main__":
    main()
