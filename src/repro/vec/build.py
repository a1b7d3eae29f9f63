"""Vectorized construction of million-peer populations.

The scalar assembly line (``Topology.random_connected`` → event-driven
BFS flood → per-peer ``LocalItemSet`` scatter) walks python objects per
peer and per edge; at N=10^6 that alone dwarfs the protocol run.  This
module builds the same *shape* of population — a connected random
overlay with a target mean degree, a BFS tree from the root, a Zipf
workload scattered uniformly over peers — entirely as array programs:

* :func:`random_overlay` — random-attachment tree plus extra random
  edges, deduplicated and packed into a CSR adjacency;
* :func:`bfs_tree` — frontier-at-a-time BFS with a deterministic
  min-parent tie-break;
* :func:`build_table` — overlay + BFS + workload in one call, returning
  the columnar :class:`~repro.vec.state.PeerTable` and the shard's exact
  ground-truth global values.

Sharding model: shard ``s`` of ``K`` owns an equal slice of the peer
population and generates its share of the instance budget over the *same
global item universe* from its own deterministic RNG stream
(``default_rng([seed, K, s, salt])``), so per-shard truths sum to the
global truth and results are a pure function of ``(seed, K, N, n)`` —
independent of worker count or scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.net.wire import SizeModel
from repro.vec.state import PeerTable, sort_unique
from repro.workload.zipf import zipf_global_values

#: Stream salts for the per-shard RNGs (one sub-stream per concern).
_TOPOLOGY_SALT = 1
_WORKLOAD_SALT = 2

#: Largest peer count whose packed pair key ``a·n + b`` (at most n² − 1)
#: fits in ``int64``: ⌊√(2⁶³ − 1)⌋.
MAX_PACKED_PEERS = math.isqrt(np.iinfo(np.int64).max)


def shard_rng(seed: int, n_shards: int, shard: int, salt: int) -> np.random.Generator:
    """The deterministic RNG stream for one (seed, K, shard, concern)."""
    return np.random.default_rng([int(seed), int(n_shards), int(shard), int(salt)])


def random_overlay(
    n_peers: int, mean_degree: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """A connected random overlay as CSR adjacency ``(indptr, targets)``.

    Mirrors the scalar ``Topology.random_connected`` construction —
    a uniform random-attachment tree (guaranteeing connectivity) plus
    uniform extra edges up to the target mean degree — with arrays
    instead of per-edge python sets.

    Edges are sorted as packed ``int64`` keys ``a·n_peers + b``, so
    ``n_peers`` may not exceed :data:`MAX_PACKED_PEERS`.
    """
    if n_peers <= 0:
        raise ConfigurationError(f"n_peers must be positive, got {n_peers}")
    if n_peers > MAX_PACKED_PEERS:
        raise ConfigurationError(
            f"n_peers {n_peers} exceeds {MAX_PACKED_PEERS}: the packed "
            "int64 edge key a·n_peers + b would overflow"
        )
    if n_peers == 1:
        return np.zeros(2, dtype=np.int64), np.empty(0, dtype=np.int64)
    children = np.arange(1, n_peers, dtype=np.int64)
    # Uniform attachment: node i joins under a uniform pick from [0, i).
    attach = (rng.random(n_peers - 1) * children).astype(np.int64)
    tree_u, tree_v = attach, children
    target_edges = int(round(n_peers * mean_degree / 2.0))
    n_extra = max(0, target_edges - (n_peers - 1))
    extra_u = rng.integers(0, n_peers, size=n_extra, dtype=np.int64)
    extra_v = rng.integers(0, n_peers, size=n_extra, dtype=np.int64)
    keep = extra_u != extra_v
    u = np.concatenate([tree_u, extra_u[keep]])
    v = np.concatenate([tree_v, extra_v[keep]])
    # Canonical undirected key lo·n + hi, deduplicated across tree + extras.
    n = np.int64(n_peers)
    key = sort_unique(np.minimum(u, v) * n + np.maximum(u, v))
    lo, hi = np.divmod(key, n)
    # Both directions as src·n + dst keys; one sort gives the CSR order.
    src, dst = np.divmod(np.sort(np.concatenate([key, hi * n + lo])), n)
    indptr = np.zeros(n_peers + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_peers), out=indptr[1:])
    return indptr, dst


def bfs_tree(
    indptr: np.ndarray, targets: np.ndarray, root: int
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-frontier BFS over a CSR adjacency.

    Returns ``(depth, parent)`` with ``depth[root] == 0``; unreachable
    vertices keep depth/parent ``-1``.  When several frontier peers offer
    to adopt the same vertex, the smallest peer id wins — a deterministic
    tie-break, so the tree is a pure function of the adjacency.  Offers
    are sorted as packed ``child·n + offered`` keys, which relies on the
    same ``n ≤`` :data:`MAX_PACKED_PEERS` bound that :func:`random_overlay`
    enforces.
    """
    n = indptr.size - 1
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    frontier = np.array([root], dtype=np.int64)
    level = 0
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.zeros(frontier.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, counts)
            + np.repeat(indptr[frontier], counts)
        )
        neighbors = targets[flat]
        senders = np.repeat(frontier, counts)
        fresh = depth[neighbors] < 0
        child, offered = neighbors[fresh], senders[fresh]
        if child.size == 0:
            break
        child, offered = np.divmod(np.sort(child * n + offered), n)
        first = np.ones(child.size, dtype=bool)
        first[1:] = child[1:] != child[:-1]
        adopted, adopter = child[first], offered[first]
        level += 1
        depth[adopted] = level
        parent[adopted] = adopter
        frontier = adopted
    return depth, parent


def scatter_workload(
    global_values: np.ndarray,
    n_peers: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter item instances uniformly over peers, straight into CSR.

    Returns ``(indptr, item_ids, item_values)``: each of the
    ``global_values.sum()`` instances lands on a uniform peer; a peer's
    value for an item is its occurrence count.  The combined
    ``peer·n + item`` key sort produces slices already sorted by item id
    — the ``LocalItemSet`` invariant — without any per-peer work.
    """
    n_items = int(global_values.size)
    instance_items = np.repeat(
        np.arange(n_items, dtype=np.int64), global_values.astype(np.int64)
    )
    instance_peers = rng.integers(0, n_peers, size=instance_items.size, dtype=np.int64)
    key, counts = np.unique(
        instance_peers * np.int64(n_items) + instance_items, return_counts=True
    )
    peer = key // n_items
    item = key % n_items
    indptr = np.zeros(n_peers + 1, dtype=np.int64)
    np.cumsum(np.bincount(peer, minlength=n_peers), out=indptr[1:])
    return indptr, item, counts.astype(np.int64)


@dataclass(frozen=True)
class BuiltShard:
    """One shard's population plus its exact generation-side truth."""

    table: PeerTable
    #: Exact global value per item *within this shard* (length n_items);
    #: shard truths sum to the global ground truth.
    global_values: np.ndarray


def build_table(
    n_peers: int,
    n_items: int,
    seed: int,
    *,
    shard: int = 0,
    n_shards: int = 1,
    skew: float = 1.0,
    mean_degree: float = 4.0,
    total_instances: int | None = None,
    instances_per_item: int = 10,
    size_model: SizeModel | None = None,
) -> BuiltShard:
    """Build one shard's columnar population, fully vectorized.

    ``n_peers`` is *this shard's* peer count.  ``total_instances`` is the
    shard's instance budget (default: ``instances_per_item · n_items /
    n_shards``, i.e. an equal slice of the paper's ``10·n`` budget).  The
    root is peer 0 — under a seeded random overlay, peer 0 is a random
    peer.
    """
    if not 0 <= shard < n_shards:
        raise ConfigurationError(f"shard {shard} out of range for {n_shards} shards")
    topo_rng = shard_rng(seed, n_shards, shard, _TOPOLOGY_SALT)
    indptr, targets = random_overlay(n_peers, mean_degree, topo_rng)
    depth, parent = bfs_tree(indptr, targets, root=0)
    if np.any(depth < 0):
        raise ConfigurationError("overlay is not connected")  # pragma: no cover
    work_rng = shard_rng(seed, n_shards, shard, _WORKLOAD_SALT)
    if total_instances is None:
        total_instances = max(1, instances_per_item * n_items // n_shards)
    global_values = zipf_global_values(n_items, skew, total_instances, work_rng)
    item_indptr, item_ids, item_values = scatter_workload(
        global_values, n_peers, work_rng
    )
    table = PeerTable(
        root=0,
        parent=parent,
        depth=depth,
        alive=np.ones(n_peers, dtype=bool),
        item_indptr=item_indptr,
        item_ids=item_ids,
        item_values=item_values,
        size_model=size_model or SizeModel(),
    )
    return BuiltShard(table=table, global_values=global_values)
