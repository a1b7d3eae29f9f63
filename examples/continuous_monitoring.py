"""Standing IFI monitoring over a live stream, with delta filtering.

Every Table I application is a monitoring task: queries keep arriving and
the hot set drifts.  This example feeds an epoch stream (with popularity
drift) into the network and reruns netFilter each epoch two ways — a
fresh one-shot query (dense phase 1 every time) vs the continuous
monitor's sparse delta optimization — printing the exact frequent set as
it evolves and the filtering bytes each mode pays.

Run:  python examples/continuous_monitoring.py
"""

from __future__ import annotations

from repro import (
    AggregationEngine,
    ContinuousNetFilter,
    Hierarchy,
    NetFilter,
    NetFilterConfig,
    Network,
    Simulation,
    Topology,
    Workload,
    ZipfStream,
    oracle_frequent_items,
)

N_PEERS, N_ITEMS, EPOCHS = 100, 10_000, 6


def build(seed: int):
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(N_PEERS, 4.0, sim.rng.stream("topology"))
    network = Network(sim, topology)
    # Seed data: the usual 10·n instances...
    workload = Workload.zipf(N_ITEMS, N_PEERS, 1.0, sim.rng.stream("workload"))
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy)
    # ... and a drifting stream delivering 2% more per epoch.
    stream = ZipfStream(
        n_items=N_ITEMS,
        n_peers=N_PEERS,
        skew=1.0,
        instances_per_epoch=2 * N_ITEMS // 100 * 10,
        rng=sim.rng.stream("stream"),
        drift_per_epoch=2000,
    )
    return network, engine, stream


def main() -> None:
    config = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)

    print(f"Monitoring {N_ITEMS} items across {N_PEERS} peers for {EPOCHS} epochs "
          f"(drifting stream)\n")
    print(f"{'epoch':>5}  {'mode':<6} {'filtering B/peer':>17} {'total B/peer':>13} "
          f"{'frequent set (top ids)':<30} exact")
    for delta in (False, True):
        network, engine, stream = build(seed=11)
        monitor = ContinuousNetFilter(config, engine) if delta else None
        mode = "delta" if delta else "dense"
        for epoch in range(EPOCHS):
            stream.apply_to(network)
            if monitor is None:
                result = NetFilter(config).run(engine)
            else:
                result = monitor.run_epoch().result
            truth = oracle_frequent_items(network, result.threshold)
            ids = ",".join(str(i) for i in result.frequent_ids[:5].tolist())
            print(f"{epoch:>5}  {mode:<6} {result.breakdown.filtering:>17.1f} "
                  f"{result.breakdown.total:>13.1f} {ids:<30} "
                  f"{result.frequent == truth}")
        print()

    print("Delta filtering pays ~2x on epoch 0 (every group changed) and then")
    print("ships only the groups the stream actually touched — the answer is")
    print("byte-identical to the dense rerun at every epoch.")


if __name__ == "__main__":
    main()
