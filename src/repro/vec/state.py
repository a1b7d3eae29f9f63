"""Columnar peer state for the vectorized execution tier.

The scalar engine keeps one :class:`~repro.net.node.Node` object per peer
and walks the tree one event at a time.  At a million peers that object
graph is the bottleneck, so the vectorized tier stores the *whole
population* in a handful of numpy arrays — struct-of-arrays instead of
array-of-structs:

* ``depth`` / ``parent`` / ``alive`` — one int64/bool entry per peer
  (the hierarchy and liveness columns);
* a CSR triple ``item_indptr`` / ``item_ids`` / ``item_values`` — every
  peer's local item set concatenated into two flat arrays, peer ``p``
  owning the slice ``item_indptr[p]:item_indptr[p+1]`` (sorted by item
  id, the :class:`~repro.items.itemset.LocalItemSet` invariant).

Whole convergecast levels then execute as batch array ops
(:mod:`repro.vec.engine`), and the *dense↔sparse escape hatch* —
:meth:`PeerTable.materialize` here, :mod:`repro.vec.escape` for whole
subtrees — converts any individual peer (or sub-population) back into
the scalar representation on demand, so the event engine keeps driving
the sparse, irregular residue (faults, repair, stragglers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.hierarchy.builder import Hierarchy
from repro.items.itemset import LocalItemSet
from repro.net.network import Network
from repro.net.wire import SizeModel


@dataclass
class PeerTable:
    """The columnar population: hierarchy columns + CSR item storage.

    Attributes
    ----------
    parent:
        ``parent[p]`` is the tree parent of peer ``p``; ``-1`` for the
        root and for non-participants.
    depth:
        BFS depth of each peer (root = 0); ``-1`` for peers outside the
        hierarchy.
    alive:
        Liveness column.  The vectorized tier models *static* fault
        states: peers dead before a run stay dead for the whole run
        (dynamic mid-run churn is the event engine's residue).
    item_indptr / item_ids / item_values:
        CSR layout of every peer's local item set; each peer's slice is
        sorted by item id with unique ids (the ``LocalItemSet``
        invariant, validated by :meth:`validate`).
    """

    root: int
    parent: np.ndarray
    depth: np.ndarray
    alive: np.ndarray
    item_indptr: np.ndarray
    item_ids: np.ndarray
    item_values: np.ndarray
    size_model: SizeModel = field(default_factory=SizeModel)
    latency: float = 1.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Total population (live and failed)."""
        return int(self.parent.size)

    @property
    def n_live(self) -> int:
        """Currently-live peers."""
        return int(np.count_nonzero(self.alive))

    @property
    def total_items(self) -> int:
        """Total (peer, item) pairs stored."""
        return int(self.item_ids.size)

    def peer_items(self, peer: int) -> tuple[np.ndarray, np.ndarray]:
        """Views (no copy) of one peer's (ids, values) slice."""
        lo, hi = int(self.item_indptr[peer]), int(self.item_indptr[peer + 1])
        return self.item_ids[lo:hi], self.item_values[lo:hi]

    def flat_peer_ids(self) -> np.ndarray:
        """The owning peer of every CSR row (length ``total_items``)."""
        counts = np.diff(self.item_indptr)
        return np.repeat(np.arange(self.n_peers, dtype=np.int64), counts)

    def per_peer_totals(self) -> np.ndarray:
        """Each peer's local grand-total contribution, exactly (int64).

        Uses the prefix-sum trick (``cs[hi] - cs[lo]``) instead of a
        float bincount, so values stay exact all the way up.
        """
        cs = np.zeros(self.item_values.size + 1, dtype=np.int64)
        np.cumsum(self.item_values, out=cs[1:])
        return cs[self.item_indptr[1:]] - cs[self.item_indptr[:-1]]

    # ------------------------------------------------------------------
    # Construction: the import bridge from the scalar representation
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network: Network, hierarchy: Hierarchy) -> "PeerTable":
        """Import a scalar (network, hierarchy) pair into columnar form.

        The bridge iterates the object graph once (O(N) python, used at
        equivalence-gate and escape-hatch scales); standalone large runs
        build their table directly with :func:`repro.vec.build.build_table`.
        """
        n = network.n_peers
        parent = np.full(n, -1, dtype=np.int64)
        depth = np.full(n, -1, dtype=np.int64)
        alive = np.zeros(n, dtype=bool)
        id_chunks: list[np.ndarray] = []
        value_chunks: list[np.ndarray] = []
        indptr = np.zeros(n + 1, dtype=np.int64)
        for peer in range(n):
            node = network.node(peer)
            alive[peer] = node.alive
            service = hierarchy.services.get(peer)
            if service is not None and service.state.attached:
                depth[peer] = int(service.state.depth)
                upstream = service.state.upstream
                parent[peer] = -1 if upstream is None else int(upstream)
            ids, values = node.items.ids, node.items.values
            id_chunks.append(ids)
            value_chunks.append(np.asarray(values, dtype=np.int64))
            indptr[peer + 1] = indptr[peer] + ids.size
        table = cls(
            root=hierarchy.root,
            parent=parent,
            depth=depth,
            alive=alive,
            item_indptr=indptr,
            item_ids=(
                np.concatenate(id_chunks) if n else np.empty(0, dtype=np.int64)
            ),
            item_values=(
                np.concatenate(value_chunks) if n else np.empty(0, dtype=np.int64)
            ),
            size_model=network.size_model,
            latency=network.transport.config.latency,
        )
        table.validate()
        return table

    # ------------------------------------------------------------------
    # Level structure and reachability
    # ------------------------------------------------------------------
    def level_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Participants sorted by depth, plus level boundaries.

        Returns ``(order, starts)``: ``order`` lists participant peers
        depth-ascending; level ``d`` occupies
        ``order[starts[d]:starts[d+1]]``.
        """
        participants = np.flatnonzero(self.depth >= 0)
        # Packed depth·n + peer keys: one sort gives the (depth, peer) order.
        n = np.int64(self.n_peers)
        order = np.sort(self.depth[participants] * n + participants) % n
        depths = self.depth[order]
        height = int(depths[-1]) if order.size else -1
        starts = np.searchsorted(depths, np.arange(height + 2))
        return order, starts

    def reachable_mask(self) -> np.ndarray:
        """Peers the root can reach over *alive* tree edges.

        A peer participates in a run iff it is alive, attached, and every
        ancestor up to the root is alive — exactly the set the scalar
        engine's ``begin_session`` (which skips dead children) covers in
        a statically-faulted network.  Computed level by level: a level-d
        peer is reachable iff it is alive and its parent is reachable.
        """
        reach = self.alive & (self.depth >= 0)
        order, starts = self.level_order()
        for d in range(1, starts.size - 1):
            level = order[starts[d] : starts[d + 1]]
            if level.size == 0:
                break
            reach[level] &= reach[self.parent[level]]
        return reach

    def reachable_height(self, reach: np.ndarray) -> int:
        """Max depth over reachable peers (0 for a root-only run)."""
        if not reach.any():
            return 0
        return int(self.depth[reach].max())

    # ------------------------------------------------------------------
    # Subtrees (sampling support for the escape hatch)
    # ------------------------------------------------------------------
    def subtree_sizes(self) -> np.ndarray:
        """Number of participants in each peer's subtree (itself included),
        accumulated bottom-up one level at a time."""
        sizes = np.where(self.depth >= 0, 1, 0).astype(np.int64)
        order, starts = self.level_order()
        for d in range(starts.size - 2, 0, -1):
            level = order[starts[d] : starts[d + 1]]
            if level.size:
                np.add.at(sizes, self.parent[level], sizes[level])
        return sizes

    def subtree_peers(self, peer: int) -> np.ndarray:
        """All participants in ``peer``'s subtree (ascending ids), marked
        in one membership column walked down the levels."""
        root_depth = int(self.depth[peer])
        if root_depth < 0:
            raise ConfigurationError(f"peer {peer} is not a hierarchy participant")
        member = np.zeros(self.n_peers, dtype=bool)
        member[peer] = True
        order, starts = self.level_order()
        for d in range(root_depth + 1, starts.size - 1):
            level = order[starts[d] : starts[d + 1]]
            inside = member[self.parent[level]]
            if not inside.any():
                break
            member[level[inside]] = True
        return np.flatnonzero(member)

    def subset(self, peers: np.ndarray) -> "PeerTable":
        """A dense re-labelled sub-table over ``peers``.

        ``peers`` must be closed under ``parent`` except for exactly one
        peer — the subtree root — whose parent falls outside the set.
        Depths are re-based so the subtree root sits at depth 0.  This is
        the dense side of the escape hatch: the same sub-population,
        re-labelled ``0..k-1``, runnable by either engine.
        """
        peers = sort_unique(np.asarray(peers, dtype=np.int64))
        relabel = np.full(self.n_peers, -1, dtype=np.int64)
        relabel[peers] = np.arange(peers.size, dtype=np.int64)
        old_parent = self.parent[peers]
        outside = (old_parent < 0) | (relabel[np.maximum(old_parent, 0)] < 0)
        if int(np.count_nonzero(outside)) != 1:
            raise ConfigurationError(
                "subset must contain exactly one subtree root "
                f"(found {int(np.count_nonzero(outside))} peers with an "
                "outside parent)"
            )
        sub_root_old = int(peers[outside][0])
        new_parent = np.where(outside, -1, relabel[np.maximum(old_parent, 0)])
        new_depth = self.depth[peers] - int(self.depth[sub_root_old])
        counts = np.diff(self.item_indptr)[peers]
        indptr = np.zeros(peers.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        take = _gather_slices(self.item_indptr, peers, counts)
        table = PeerTable(
            root=int(relabel[sub_root_old]),
            parent=new_parent,
            depth=new_depth,
            alive=self.alive[peers].copy(),
            item_indptr=indptr,
            item_ids=self.item_ids[take],
            item_values=self.item_values[take],
            size_model=self.size_model,
            latency=self.latency,
        )
        table.validate()
        return table

    # ------------------------------------------------------------------
    # The per-peer escape hatch (dense -> sparse)
    # ------------------------------------------------------------------
    def materialize(self, peer: int) -> LocalItemSet:
        """One peer's local item set as a scalar :class:`LocalItemSet`.

        The per-peer read side of the escape hatch: CSR slices already
        satisfy the sorted-unique invariant, so construction takes the
        no-copy fast path of :class:`LocalItemSet`.
        """
        ids, values = self.peer_items(peer)
        return LocalItemSet(ids, values)

    def absorb(self, peer: int, items: LocalItemSet) -> None:
        """Write one peer's (possibly mutated) scalar item set back.

        The write side of the escape hatch — after the event engine has
        driven a peer through some irregular episode (repair, a straggler
        retry, a churn arrival), its updated item set re-enters the
        columnar store.  Rebuilds the CSR arrays once per call; batch
        writers should prefer constructing a fresh table.
        """
        lo, hi = int(self.item_indptr[peer]), int(self.item_indptr[peer + 1])
        self.item_ids = np.concatenate(
            [self.item_ids[:lo], items.ids, self.item_ids[hi:]]
        )
        self.item_values = np.concatenate(
            [self.item_values[:lo], items.values, self.item_values[hi:]]
        )
        delta = items.ids.size - (hi - lo)
        if delta:
            self.item_indptr = self.item_indptr.copy()
            self.item_indptr[peer + 1 :] += delta

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants; raises on violation."""
        n = self.n_peers
        if self.depth.shape != (n,) or self.alive.shape != (n,):
            raise ConfigurationError("column lengths disagree")
        if self.item_indptr.shape != (n + 1,):
            raise ConfigurationError("item_indptr must have length n_peers + 1")
        if np.any(np.diff(self.item_indptr) < 0):
            raise ConfigurationError("item_indptr must be non-decreasing")
        if int(self.item_indptr[-1]) != self.item_ids.size:
            raise ConfigurationError("item_indptr does not cover item_ids")
        if self.item_ids.shape != self.item_values.shape:
            raise ConfigurationError("item_ids and item_values lengths disagree")
        if self.depth[self.root] != 0 or self.parent[self.root] != -1:
            raise ConfigurationError("root must sit at depth 0 with no parent")
        participants = np.flatnonzero(self.depth >= 0)
        non_root = participants[participants != self.root]
        if non_root.size:
            parents = self.parent[non_root]
            if np.any(parents < 0):
                raise ConfigurationError("non-root participant without a parent")
            if np.any(self.depth[non_root] != self.depth[parents] + 1):
                raise ConfigurationError("tree edges must span consecutive depths")
        # Per-peer sorted-unique item ids: strictly increasing inside each
        # slice <=> every adjacent pair either increases or crosses a
        # peer boundary.
        if self.item_ids.size > 1:
            increasing = self.item_ids[1:] > self.item_ids[:-1]
            boundaries = np.zeros(self.item_ids.size - 1, dtype=bool)
            cuts = self.item_indptr[1:-1]
            boundaries[cuts[(cuts > 0) & (cuts < self.item_ids.size)] - 1] = True
            if not np.all(increasing | boundaries):
                raise ConfigurationError(
                    "per-peer item ids must be strictly increasing"
                )


def sort_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by one sort and an adjacent-difference mask.

    A bare ``np.unique`` on ``int64`` takes numpy 2.x's hash-table path,
    which is tens of times slower than a sort on large arrays.
    """
    keys = np.sort(keys)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _gather_slices(
    indptr: np.ndarray, peers: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Flat CSR row indices for the given peers' slices, in peer order."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = indptr[peers]
    offsets = np.zeros(peers.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(starts, counts)
    )
