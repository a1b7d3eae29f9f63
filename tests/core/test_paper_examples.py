"""The paper's worked examples, reproduced literally.

* Figure 1: three peers, eight items a..h, threshold 3, four item groups;
  only item-group 2 ({c, d}) is heavy; verification returns exactly {d: 3}.
* Figure 4: four filters of ten groups; item x (all groups heavy) stays a
  candidate, item y (one light group) is pruned.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.netfilter import NetFilter
from repro.core.verification import HeavyGroups
from repro.hierarchy.builder import Hierarchy
from repro.items.itemset import LocalItemSet
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.sim.engine import Simulation

# Items a..h become ids 0..7.
A, B, C, D, E, F, G, H = range(8)


class FixedGroupFilterBank(FilterBank):
    """A filter bank with the paper's explicit Figure 1 grouping:
    {a,b} -> group 0, {c,d} -> 1, {e,f} -> 2, {g,h} -> 3."""

    def __init__(self) -> None:
        super().__init__(num_filters=1, filter_size=4, hash_seed=0)

    def flat_groups(self, item_ids: np.ndarray) -> np.ndarray:
        return (np.asarray(item_ids, dtype=np.int64) // 2)[None, :]


def build_figure1_network() -> tuple[Network, AggregationEngine]:
    sim = Simulation(seed=0)
    network = Network(sim, Topology.star(3))
    # P1: {a:1, b:1, d:1}; P2: {d:1, f:1, g:1}; P3: {c:1, d:1, e:1}
    # (local values chosen to give the figure's global values
    #  a=1 b=1 c=1 d=3 e=1 f=1 g=1 h=1 with threshold 3).
    network.node(0).items = LocalItemSet.from_pairs({A: 1, B: 1, D: 1})
    network.node(1).items = LocalItemSet.from_pairs({D: 1, F: 1, G: 1, H: 1})
    network.node(2).items = LocalItemSet.from_pairs({C: 1, D: 1, E: 1})
    hierarchy = Hierarchy.build(network, root=0)
    return network, AggregationEngine(hierarchy)


def test_figure1_global_values():
    network, engine = build_figure1_network()
    from repro.core.oracle import oracle_global_values

    values = oracle_global_values(network)
    assert values.to_dict() == {A: 1, B: 1, C: 1, D: 3, E: 1, F: 1, G: 1, H: 1}


def test_figure1_candidate_filtering_keeps_only_group2():
    network, engine = build_figure1_network()
    bank = FixedGroupFilterBank()
    total = LocalItemSet.merge_many(
        [network.node(p).items for p in range(3)]
    )
    aggregate = bank.local_group_aggregates(total)
    # Group aggregates: {a,b}=2, {c,d}=4, {e,f}=2, {g,h}=2 — only group 1
    # (the figure's "Item-group 2") reaches threshold 3.
    assert aggregate.tolist() == [2, 4, 2, 2]
    heavy = HeavyGroups.from_aggregate(bank, aggregate, threshold=3)
    assert heavy.per_filter[0].tolist() == [1]


def test_figure1_verification_returns_item_d():
    network, engine = build_figure1_network()
    bank = FixedGroupFilterBank()
    from repro.core.verification import materialize_candidates

    heavy = HeavyGroups(per_filter=(np.array([1]),))
    partials = [
        materialize_candidates(network.node(p).items, bank, heavy) for p in range(3)
    ]
    merged = LocalItemSet.merge_many(partials)
    # Candidates are c (global 1) and d (global 3); only d passes.
    assert merged.to_dict() == {C: 1, D: 3}
    assert merged.filter_values(3).to_dict() == {D: 3}


def test_figure1_full_protocol_run():
    network, engine = build_figure1_network()
    config = NetFilterConfig(filter_size=4, num_filters=1, threshold=3)
    result = NetFilter(config).run(engine)
    assert result.frequent.to_dict() == {D: 3}
    assert result.grand_total == 10
    assert result.n_participants == 3


def test_figure4_multi_filter_pruning():
    # Four filters over ten groups.  Item x's groups (1, 5, 2, 3) are all
    # heavy; item y's groups (7, 5, 10->9, 1) include a light one under
    # filter 4, so y is pruned.
    bank = FilterBank(num_filters=4, filter_size=10, hash_seed=0)
    heavy_per_filter = [
        np.array([1, 4]),
        np.array([5]),
        np.array([2, 8]),
        np.array([3]),
    ]
    x_groups = [1, 5, 2, 3]
    y_groups = [7, 5, 9, 1]

    scripted = {100: x_groups, 200: y_groups}
    bank.flat_groups = lambda ids: np.array(
        [
            [index * 10 + scripted[int(i)][index] for i in ids]
            for index in range(4)
        ]
    )
    mask = bank.candidate_mask(np.array([100, 200]), heavy_per_filter)
    assert mask.tolist() == [True, False]
