"""Tests for vectorized population construction and the sharding model.

The build kernels are checked against pure-Python references over drawn
sizes, degrees and seeds, and one shard's arrays are pinned by a golden
hash, so a faster sort cannot change a single byte of the population.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vec
from repro.errors import ConfigurationError
from repro.vec import PeerTable
from repro.vec.build import (
    MAX_PACKED_PEERS,
    bfs_tree,
    build_table,
    random_overlay,
    shard_rng,
)


def reference_overlay(
    n_peers: int, mean_degree: float, seed: int
) -> tuple[list[int], list[int]]:
    """``random_overlay``'s CSR from the same draws, with python sets.

    The tree and extra-edge draws repeat the kernel's; deduplication is a
    set of sorted undirected pairs, expanded to sorted adjacency lists.
    """
    rng = shard_rng(seed, 1, 0, 1)
    edges: set[tuple[int, int]] = set()
    if n_peers > 1:
        children = np.arange(1, n_peers, dtype=np.int64)
        attach = (rng.random(n_peers - 1) * children).astype(np.int64)
        target_edges = int(round(n_peers * mean_degree / 2.0))
        n_extra = max(0, target_edges - (n_peers - 1))
        extra_u = rng.integers(0, n_peers, size=n_extra, dtype=np.int64)
        extra_v = rng.integers(0, n_peers, size=n_extra, dtype=np.int64)
        us = attach.tolist() + extra_u.tolist()
        vs = children.tolist() + extra_v.tolist()
        edges = {(min(u, v), max(u, v)) for u, v in zip(us, vs) if u != v}
    return csr_of(n_peers, edges)


def csr_of(n_peers: int, edges: set[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Sorted adjacency lists of an undirected edge set, as CSR lists."""
    adjacency: list[list[int]] = [[] for _ in range(n_peers)]
    for a, b in sorted(edges):
        adjacency[a].append(b)
        adjacency[b].append(a)
    indptr, targets = [0], []
    for neighbors in adjacency:
        targets.extend(sorted(neighbors))
        indptr.append(len(targets))
    return indptr, targets


def reference_bfs(
    indptr: list[int], targets: list[int], root: int
) -> tuple[list[int], list[int]]:
    """Level-by-level queue BFS: each newly reached vertex is adopted by
    its smallest-id neighbour in the previous frontier."""
    n = len(indptr) - 1
    depth, parent = [-1] * n, [-1] * n
    depth[root] = 0
    frontier = [root]
    while frontier:
        offers: dict[int, int] = {}
        for peer in frontier:
            for neighbor in targets[indptr[peer] : indptr[peer + 1]]:
                if depth[neighbor] < 0:
                    offers[neighbor] = min(offers.get(neighbor, peer), peer)
        for child, adopter in offers.items():
            depth[child] = depth[adopter] + 1
            parent[child] = adopter
        frontier = sorted(offers)
    return depth, parent


def table_digest(built) -> str:
    """SHA-256 over one shard's arrays (dtype, length and bytes of each)."""
    table = built.table
    order, starts = table.level_order()
    digest = hashlib.sha256()
    for array in (
        table.parent,
        table.depth,
        table.alive,
        table.item_indptr,
        table.item_ids,
        table.item_values,
        built.global_values,
        order,
        starts,
    ):
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(np.int64(array.size).tobytes())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestRandomOverlay:
    def test_connected_and_deterministic(self):
        a = random_overlay(500, 4.0, shard_rng(1, 1, 0, 1))
        b = random_overlay(500, 4.0, shard_rng(1, 1, 0, 1))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        depth, _ = bfs_tree(*a, root=0)
        assert (depth >= 0).all()

    def test_mean_degree_near_target(self):
        indptr, targets = random_overlay(2_000, 6.0, shard_rng(3, 1, 0, 1))
        mean_degree = targets.size / 2_000
        assert 5.0 <= mean_degree <= 6.5

    def test_no_self_or_duplicate_edges(self):
        indptr, targets = random_overlay(300, 5.0, shard_rng(7, 1, 0, 1))
        src = np.repeat(np.arange(300), np.diff(indptr))
        assert (src != targets).all()
        keys = src * 300 + targets
        assert np.unique(keys).size == keys.size

    @settings(max_examples=150, deadline=None)
    @given(
        n_peers=st.integers(1, 300),
        mean_degree=st.sampled_from([0.0, 1.0, 2.0, 3.3, 4.0, 7.5, 20.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_python_reference(self, n_peers, mean_degree, seed):
        indptr, targets = random_overlay(n_peers, mean_degree, shard_rng(seed, 1, 0, 1))
        ref_indptr, ref_targets = reference_overlay(n_peers, mean_degree, seed)
        assert indptr.dtype == targets.dtype == np.int64
        assert indptr.tolist() == ref_indptr
        assert targets.tolist() == ref_targets

    def test_rejects_overflowing_population(self):
        # Keys reach n² − 1, so the bound is the largest n with n² − 1 in int64.
        assert MAX_PACKED_PEERS**2 - 1 <= np.iinfo(np.int64).max
        assert (MAX_PACKED_PEERS + 1) ** 2 - 1 > np.iinfo(np.int64).max
        # The guard runs before any array is built, so this allocates nothing.
        with pytest.raises(ConfigurationError, match="overflow"):
            random_overlay(MAX_PACKED_PEERS + 1, 4.0, shard_rng(1, 1, 0, 1))


class TestBfsTree:
    def test_depths_are_shortest_paths(self):
        indptr, targets = random_overlay(400, 4.0, shard_rng(5, 1, 0, 1))
        depth, parent = bfs_tree(indptr, targets, root=0)
        non_root = np.flatnonzero(np.arange(400) != 0)
        assert (depth[parent[non_root]] == depth[non_root] - 1).all()

    def test_min_parent_tie_break(self):
        # Diamond: 0-1, 0-2, 1-3, 2-3.  Peers 1 and 2 both offer to adopt
        # peer 3 in the same frontier; the smaller id must win.
        indptr = np.array([0, 2, 4, 6, 8], dtype=np.int64)
        targets = np.array([1, 2, 0, 3, 0, 3, 1, 2], dtype=np.int64)
        depth, parent = bfs_tree(indptr, targets, root=0)
        assert depth.tolist() == [0, 1, 1, 2]
        assert parent[3] == 1

    @settings(max_examples=150, deadline=None)
    @given(
        n_peers=st.integers(1, 300),
        mean_degree=st.sampled_from([1.0, 2.0, 4.0, 7.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_overlay_matches_python_reference(self, n_peers, mean_degree, seed):
        indptr, targets = random_overlay(n_peers, mean_degree, shard_rng(seed, 1, 0, 1))
        root = seed % n_peers
        depth, parent = bfs_tree(indptr, targets, root=root)
        ref_depth, ref_parent = reference_bfs(indptr.tolist(), targets.tolist(), root)
        assert depth.tolist() == ref_depth
        assert parent.tolist() == ref_parent

    @settings(max_examples=150, deadline=None)
    @given(
        n_peers=st.integers(1, 60),
        density=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_disconnected_graph_matches_python_reference(self, n_peers, density, seed):
        rng = np.random.default_rng(seed)
        edges = {
            (a, b)
            for a in range(n_peers)
            for b in range(a + 1, n_peers)
            if rng.random() < density
        }
        indptr, targets = csr_of(n_peers, edges)
        root = seed % n_peers
        depth, parent = bfs_tree(
            np.array(indptr, dtype=np.int64), np.array(targets, dtype=np.int64), root
        )
        ref_depth, ref_parent = reference_bfs(indptr, targets, root)
        assert depth.tolist() == ref_depth
        assert parent.tolist() == ref_parent


class TestLevelOrder:
    @settings(max_examples=150, deadline=None)
    @given(depth=st.lists(st.integers(-1, 6), max_size=80))
    def test_matches_lexsort(self, depth):
        depth = np.array(depth, dtype=np.int64)
        n_peers = depth.size
        table = PeerTable(
            root=0,
            parent=np.full(n_peers, -1, dtype=np.int64),
            depth=depth,
            alive=np.ones(n_peers, dtype=bool),
            item_indptr=np.zeros(n_peers + 1, dtype=np.int64),
            item_ids=np.empty(0, dtype=np.int64),
            item_values=np.empty(0, dtype=np.int64),
        )
        order, starts = table.level_order()
        peers = np.flatnonzero(depth >= 0)
        expected = peers[np.lexsort((peers, depth[peers]))]
        assert order.dtype == np.int64
        assert order.tolist() == expected.tolist()
        height = int(depth.max(initial=-1))
        for level in range(height + 1):
            at_level = order[starts[level] : starts[level + 1]]
            assert at_level.tolist() == np.flatnonzero(depth == level).tolist()
        assert starts[-1] == peers.size


class TestBuildTable:
    def test_truth_matches_csr(self):
        built = build_table(n_peers=100, n_items=500, seed=9)
        summed = np.zeros(500, dtype=np.int64)
        np.add.at(summed, built.table.item_ids, built.table.item_values)
        assert np.array_equal(summed, built.global_values)

    def test_budget_is_exact(self):
        built = build_table(n_peers=100, n_items=500, seed=9)
        assert built.global_values.sum() == 10 * 500

    def test_deterministic(self):
        a = build_table(n_peers=100, n_items=500, seed=9)
        b = build_table(n_peers=100, n_items=500, seed=9)
        assert np.array_equal(a.table.item_values, b.table.item_values)
        assert np.array_equal(a.table.parent, b.table.parent)

    def test_shards_are_independent_streams(self):
        one = build_table(n_peers=100, n_items=500, seed=9, shard=0, n_shards=2)
        two = build_table(n_peers=100, n_items=500, seed=9, shard=1, n_shards=2)
        assert not np.array_equal(one.global_values, two.global_values)

    def test_shard_out_of_range(self):
        with pytest.raises(ConfigurationError):
            build_table(n_peers=10, n_items=10, seed=0, shard=2, n_shards=2)

    def test_golden_shard_hash(self):
        # Computed with the earlier np.unique / np.lexsort / stable-argsort
        # kernels, before the sort-only build; any byte change trips it.
        built = build_table(50_000, 100_000, seed=1, shard=3, n_shards=8)
        assert table_digest(built) == (
            "ff151ea6c5d72d8f84642688eda07c7cb8390c67a923a9583714c9af6a632c94"
        )


def test_no_bare_unique_in_vec_kernels():
    """A bare ``np.unique`` on ``int64`` takes numpy 2.x's hash path, far
    slower than a sort on large arrays; ``repro.vec`` uses ``sort_unique``."""
    bare = []
    for path in sorted(Path(repro.vec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and not any(
                    (kw.arg or "").startswith("return_") for kw in node.keywords
                )
            ):
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []
