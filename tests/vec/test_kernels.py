"""Reference tests for the phase-2 kernels of :mod:`repro.vec.engine`.

Each kernel is checked against the definition it batches: the subtree
pair count against a per-peer brute-force union of candidate ranks over
drawn faulted trees, and the population candidate rows against every
reachable peer's own ``materialize_candidates``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NetFilterConfig
from repro.core.netfilter import one_shot_plan
from repro.core.verification import materialize_candidates
from repro.vec import PeerTable, build_table
from repro.vec.engine import (
    POPCOUNT8,
    CandidateRows,
    candidate_rows,
    popcount,
    subtree_candidate_pairs,
)
from repro.vec.netfilter import barrier, round1


class TestPopcount:
    def test_byte_table(self):
        assert POPCOUNT8.dtype == np.uint8
        assert [int(POPCOUNT8[byte]) for byte in (0, 1, 3, 128, 255)] == [0, 1, 2, 1, 8]

    def test_zero_and_all_ones(self):
        assert popcount(np.zeros(3, dtype=np.uint64)) == 0
        assert popcount(np.array([2**64 - 1], dtype=np.uint64)) == 64
        assert popcount(np.full(5, 2**64 - 1, dtype=np.uint64)) == 320

    @pytest.mark.parametrize("bit", range(64))
    def test_single_bit_words(self, bit):
        assert popcount(np.array([1 << bit], dtype=np.uint64)) == 1


@st.composite
def candidate_trees(draw):
    """A faulted tree under a random labelling, plus each reachable
    peer's own candidate ranks out of K.

    Returns ``(table, held, K)``: ``held[p]`` is the set of ranks peer ``p``
    holds (empty for unreachable peers, which hold no candidate rows).
    A few trailing peers stay outside the hierarchy.
    """
    n_tree = draw(st.integers(1, 60))
    n_outside = draw(st.integers(0, 3))
    n_candidates = draw(st.sampled_from([0, 1, 63, 64, 65, 129]))
    parents = [draw(st.integers(0, child - 1)) for child in range(1, n_tree)]
    dead = draw(st.sets(st.integers(1, max(n_tree - 1, 1)), max_size=n_tree // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.02, 0.3, 1.0]))

    n_peers = n_tree + n_outside
    label = np.concatenate([rng.permutation(n_tree), np.arange(n_tree, n_peers)])
    parent = np.full(n_peers, -1, dtype=np.int64)
    depth = np.full(n_peers, -1, dtype=np.int64)
    alive = np.ones(n_peers, dtype=bool)
    depth[label[0]] = 0
    for child, up in enumerate(parents, start=1):
        parent[label[child]] = label[up]
        depth[label[child]] = depth[label[up]] + 1
    alive[label[sorted(dead)]] = False
    table = PeerTable(
        root=int(label[0]),
        parent=parent,
        depth=depth,
        alive=alive,
        item_indptr=np.zeros(n_peers + 1, dtype=np.int64),
        item_ids=np.empty(0, dtype=np.int64),
        item_values=np.empty(0, dtype=np.int64),
    )
    table.validate()

    reach = _reachable(table)
    held = [
        set(np.flatnonzero(rng.random(n_candidates) < density).tolist()) if reach[p] else set()
        for p in range(n_peers)
    ]
    return table, held, n_candidates


def _reachable(table):
    """Brute force: alive, in the hierarchy, and every ancestor alive."""
    reach = np.zeros(table.n_peers, dtype=bool)
    for peer in range(table.n_peers):
        node, ok = peer, table.depth[peer] >= 0
        while ok and node >= 0:
            ok = bool(table.alive[node])
            node = int(table.parent[node])
        reach[peer] = ok
    return reach


def _ancestors(table, peer):
    while peer >= 0:
        yield peer
        peer = int(table.parent[peer])


class TestSubtreeCandidatePairs:
    @settings(max_examples=120, deadline=None)
    @given(case=candidate_trees())
    def test_matches_brute_force_subtree_unions(self, case):
        table, held, n_candidates = case
        peer = np.array([p for p in range(table.n_peers) for _ in held[p]], dtype=np.int64)
        rank = np.array([r for p in range(table.n_peers) for r in sorted(held[p])], dtype=np.int64)
        rows = CandidateRows(
            peer=peer,
            rank=rank,
            value=np.ones(peer.size, dtype=np.int64),
            universe=np.arange(n_candidates, dtype=np.int64) * 7,
        )

        subtree: list[set[int]] = [set() for _ in range(table.n_peers)]
        for p in range(table.n_peers):
            for up in _ancestors(table, p):
                subtree[up] |= held[p]
        reach = _reachable(table)
        expected_pairs = sum(
            len(subtree[p]) for p in range(table.n_peers) if reach[p] and p != table.root
        )

        pairs_sent, root_count = subtree_candidate_pairs(table, rows)
        assert pairs_sent == expected_pairs
        assert root_count == len(subtree[table.root])


class TestCandidateRows:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("threshold_ratio", [0.01, 0.05])
    def test_equals_each_peers_materialized_candidates(self, seed, threshold_ratio):
        table = build_table(n_peers=400, n_items=1_500, seed=seed).table
        rng = np.random.default_rng(seed)
        table.alive[rng.choice(np.arange(1, 400), size=40, replace=False)] = False
        reach = table.reachable_mask()
        assert 0 < np.count_nonzero(reach) < table.n_peers

        plan = one_shot_plan(
            NetFilterConfig(filter_size=24, num_filters=2, threshold_ratio=threshold_ratio)
        )
        heavy, _ = barrier(plan, [round1(table, reach, plan.bank)])
        rows = candidate_rows(table, reach, plan.bank, heavy)

        own = {
            int(p): materialize_candidates(table.materialize(int(p)), plan.bank, heavy)
            for p in np.flatnonzero(reach)
        }
        ids = np.concatenate([own[p].ids for p in own])
        assert ids.size > 0
        assert np.array_equal(rows.universe[rows.rank], ids)
        assert np.array_equal(rows.value, np.concatenate([own[p].values for p in own]))
        assert np.array_equal(rows.peer, np.repeat(list(own), [len(own[p]) for p in own]))
        assert np.array_equal(rows.universe, np.unique(ids))
        assert np.all(np.diff(rows.universe) > 0)
        assert rows.rank.min() == 0 and rows.rank.max() == rows.n_candidates - 1
