"""Section IV-A's no-bottleneck argument, checked against measured bytes.

The paper argues that netFilter does not bottleneck the root: the
candidate-filtering cost is the same at every non-root peer,
dissemination at every non-leaf, and only candidate aggregation grows
toward the root — but stays small because few candidates survive
filtering.  These tests slice :meth:`CostAccounting.per_peer_bytes` by
:meth:`Hierarchy.depth_of` and check that argument on one run.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter
from repro.net.wire import NETFILTER_CATEGORIES, CostCategory

from tests.conftest import build_small_system


@pytest.fixture(scope="module")
def measured():
    system = build_small_system(seed=15, n_peers=100, n_items=8000)
    # Hierarchy construction charges CONTROL only, so the netFilter
    # categories read below count this run alone.
    assert system.network.accounting.total_bytes(NETFILTER_CATEGORIES) == 0
    config = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)
    result = NetFilter(config).run(system.engine)
    return system, result


def mean_bytes_by_depth(system, categories=NETFILTER_CATEGORIES) -> dict[int, float]:
    """Average bytes sent per participant at each depth; peers that sent
    nothing still count in their depth's average."""
    per_peer = system.network.accounting.per_peer_bytes(categories)
    by_depth: dict[int, list[int]] = defaultdict(list)
    for peer in system.hierarchy.participants():
        by_depth[system.hierarchy.depth_of(peer)].append(per_peer.get(peer, 0))
    return {depth: sum(sent) / len(sent) for depth, sent in sorted(by_depth.items())}


def test_every_depth_represented(measured):
    system, _ = measured
    assert set(mean_bytes_by_depth(system)) == {
        system.hierarchy.depth_of(p) for p in system.hierarchy.participants()
    }


def test_section_iv_a_claim_no_root_bottleneck(measured):
    """'the communication cost incurred at the peers located at the higher
    levels of the hierarchy is not significantly higher than that incurred
    at the peers located at the lower levels' — Section IV-A."""
    system, _ = measured
    by_depth = mean_bytes_by_depth(system)
    depths = sorted(by_depth)
    shallow = by_depth[depths[1]]  # depth 1 (the root itself sends nothing up)
    deepest = by_depth[depths[-1]]
    assert shallow < 5 * deepest


def test_filtering_cost_flat_across_depths(measured):
    system, _ = measured
    by_depth = mean_bytes_by_depth(system, (CostCategory.FILTERING,))
    values = [v for d, v in by_depth.items() if d > 0]
    # s_a · f · g at every non-root peer: identical by construction.
    assert max(values) == pytest.approx(min(values))


def test_bottleneck_ratio_is_moderate(measured):
    system, _ = measured
    per_peer = system.network.accounting.per_peer_bytes(NETFILTER_CATEGORIES)
    sent = [per_peer.get(p, 0) for p in system.hierarchy.participants()]
    ratio = max(sent) / (sum(sent) / len(sent))
    # A star-collection protocol would put N× the mean on one peer; the
    # hierarchical scheme stays within a small constant.
    assert 1.0 <= ratio < 6.0


def test_elapsed_time_scales_with_height(measured):
    system, result = measured
    # Three convergecasts + request sweeps: elapsed is a few times the
    # height (unit latency), far below a gossip protocol's O(rounds).
    height = system.hierarchy.height()
    assert result.elapsed_time >= 2 * height
    assert result.elapsed_time <= 12 * (height + 1)
