"""Batched execution of convergecast phases over a :class:`PeerTable`.

Where the scalar engine delivers ``2·(N-1)`` messages per phase one
event at a time, this module executes each phase as a handful of array
programs over the whole population — and reproduces the scalar engine's
*byte accounting* exactly, because in a statically-faulted network every
byte the event engine charges is a closed-form function of the tree:

* requests go parent→child once per reachable non-root peer (the scalar
  ``begin_session`` skips dead children, so no request ever targets an
  unreachable peer and no timeout fires);
* replies go child→parent once per reachable non-root peer, sized by
  the phase's combiner: a fixed size for totals and filtering, one pair
  per distinct candidate in the sender's subtree for verification.

Request bodies, categories and fixed reply sizes are read off the same
:class:`~repro.aggregation.spec.AggregateSpec` the event engine runs
(:func:`phase_bytes`).  The only tree-*shape*-dependent term is the
verification reply; computed here by a level-by-level batched subtree
merge (:func:`subtree_candidate_pairs`) — the exact distinct-count every
reply would carry, without simulating any message.

Trace and metrics emission is aggregated per batch: one ``vec.phase``
event per phase and a bulk histogram merge instead of one observation
per peer, so telemetry and cost curves stay honest at a million peers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Any

from repro.aggregation.spec import AggregateSpec
from repro.core.filters import FilterBank
from repro.core.verification import HeavyGroups
from repro.net.wire import CostCategory, SizeModel
from repro.telemetry import Telemetry
from repro.telemetry.kinds import declare_kind
from repro.vec.state import PeerTable

VEC_PHASE_KIND = declare_kind(
    "vec.phase", "one batched convergecast phase executed by the vectorized tier"
)
VEC_ESCAPE_KIND = declare_kind(
    "vec.escape", "a sub-population crossed the dense<->sparse escape hatch"
)
VEC_SHARD_KIND = declare_kind(
    "vec.shard_merged", "the sharded driver merged per-shard root aggregates"
)


@dataclass(frozen=True)
class PhaseBytes:
    """Exact byte totals of one convergecast phase (whole population)."""

    requests: int
    replies: int
    down_category: CostCategory
    up_category: CostCategory


def phase_bytes(
    spec: AggregateSpec,
    request: Any,
    model: SizeModel,
    n_edges: int,
    reply_bodies: int,
) -> PhaseBytes:
    """Price one phase of ``spec`` over ``n_edges`` tree edges: one
    request message per edge, its body priced by the spec, one reply
    message per edge totalling ``reply_bodies`` body bytes, plus the size
    model's per-message header on every message (0 under the paper's
    model) — each sweep charged to the spec's own category."""
    header = model.header_bytes
    return PhaseBytes(
        requests=n_edges * (spec.request_bytes(request, model) + header),
        replies=reply_bodies + n_edges * header,
        down_category=spec.down_category,
        up_category=spec.up_category,
    )


# ----------------------------------------------------------------------
# Phase primitives
# ----------------------------------------------------------------------
def grand_totals(table: PeerTable, reach: np.ndarray) -> tuple[int, int]:
    """Phase 0 root value: ``(grand total v, participant count N)`` over
    the reachable population — one batch op for the whole convergecast."""
    totals = table.per_peer_totals()
    return int(totals[reach].sum()), int(np.count_nonzero(reach))


def reachable_flat_mask(table: PeerTable, reach: np.ndarray) -> np.ndarray:
    """CSR-row mask selecting the items of reachable peers."""
    return np.repeat(reach, np.diff(table.item_indptr))


def group_aggregate(
    table: PeerTable, reach: np.ndarray, bank: FilterBank
) -> np.ndarray:
    """Phase 1 root value: the flat ``f·g`` group-aggregate vector.

    The root of the scalar convergecast ends with the *sum* of every
    reachable peer's local group vector; summation is associative, so
    one global scatter-add over the flat reachable items produces the
    identical vector (exact int64 — no float intermediates).
    """
    flat = reachable_flat_mask(table, reach)
    ids = table.item_ids[flat]
    values = table.item_values[flat]
    aggregate = np.zeros(bank.total_groups, dtype=np.int64)
    for index, hash_filter in enumerate(bank.filters):
        groups = hash_filter.group_of(ids)
        np.add.at(aggregate[index * bank.filter_size :], groups, values)
    return aggregate


@dataclass(frozen=True)
class CandidateRows:
    """The reachable population's candidate (peer, item, value) rows.

    ``rank`` is each row's index into ``universe`` (the distinct
    candidate ids, ascending) — the dense key the level merge works in.
    """

    peer: np.ndarray
    rank: np.ndarray
    value: np.ndarray
    universe: np.ndarray

    @property
    def n_candidates(self) -> int:
        return int(self.universe.size)


def candidate_rows(
    table: PeerTable, reach: np.ndarray, bank: FilterBank, heavy: HeavyGroups
) -> CandidateRows:
    """Every reachable peer's partial candidate set, in one batch.

    Vectorizes ``materialize_candidates`` across the population: the
    filter decision depends only on the item id, so it is evaluated once
    per *distinct* id and broadcast back to the (peer, item) rows.
    """
    empty = np.empty(0, dtype=np.int64)
    if heavy.is_empty():
        return CandidateRows(peer=empty, rank=empty, value=empty, universe=empty)
    flat = reachable_flat_mask(table, reach)
    ids = table.item_ids[flat]
    values = table.item_values[flat]
    peers = table.flat_peer_ids()[flat]
    distinct, inverse = np.unique(ids, return_inverse=True)
    distinct_mask = bank.candidate_mask(distinct, heavy.lookup(bank))
    keep = distinct_mask[inverse]
    universe = distinct[distinct_mask]
    # Re-rank the surviving ids densely: positions of kept distinct ids.
    rank_of_distinct = np.cumsum(distinct_mask, dtype=np.int64) - 1
    return CandidateRows(
        peer=peers[keep],
        rank=rank_of_distinct[inverse[keep]],
        value=values[keep],
        universe=universe,
    )


def candidate_global_values(rows: CandidateRows) -> np.ndarray:
    """Exact global value per candidate (int64 scatter-add over rows)."""
    out = np.zeros(rows.n_candidates, dtype=np.int64)
    np.add.at(out, rows.rank, rows.value)
    return out


def subtree_candidate_pairs(
    table: PeerTable, rows: CandidateRows
) -> tuple[int, int, np.ndarray]:
    """The phase-2 reply sizes, computed as a batched subtree merge.

    Every non-root reachable peer's reply carries the *distinct*
    candidate ids of its subtree (Algorithm 2's keyed-sum merge).
    Working from the deepest level up: relabel the deduplicated child
    sets to their parents, concatenate with the parents' own candidate
    rows, deduplicate on the combined ``peer·K + rank`` key — the
    surviving key count at each level *is* the total reply payload of
    that level.

    Returns ``(total pairs sent, root distinct count, per-peer own
    candidate counts)`` — the last feeds the batched histogram emission.
    """
    n_candidates = rows.n_candidates
    own_counts = np.bincount(rows.peer, minlength=table.n_peers).astype(np.int64)
    if n_candidates == 0:
        return 0, 0, own_counts
    k = np.int64(n_candidates)
    depths = table.depth[rows.peer]
    height = int(depths.max(initial=0))
    pairs_sent = 0
    carry = np.empty(0, dtype=np.int64)
    for level in range(height, -1, -1):
        at_level = depths == level
        own_keys = rows.peer[at_level] * k + rows.rank[at_level]
        keys = np.unique(np.concatenate([own_keys, carry]))
        if level == 0:
            return pairs_sent, int(keys.size), own_counts
        pairs_sent += int(keys.size)
        carry = table.parent[keys // k] * k + keys % k
    return pairs_sent, 0, own_counts  # pragma: no cover - loop always hits level 0


# ----------------------------------------------------------------------
# Batched telemetry
# ----------------------------------------------------------------------
def emit_phase(telemetry: Telemetry | None, phase: str, peers: int, priced: PhaseBytes) -> None:
    """One aggregated trace event per batched phase (vs one per message
    in the scalar tier)."""
    if telemetry is None:
        return
    telemetry.emit(
        VEC_PHASE_KIND,
        phase=phase,
        peers=peers,
        request_bytes=priced.requests,
        reply_bytes=priced.replies,
    )


def observe_candidates_histogram(telemetry: Telemetry | None, peers_holding: np.ndarray) -> None:
    """Bulk-merge per-peer candidate counts (``peers_holding[c]`` peers
    hold ``c`` candidates of their own) into the same
    ``netfilter.candidates_per_peer`` histogram the scalar tier feeds,
    one vectorized merge instead of N ``observe`` calls."""
    if telemetry is None:
        return
    histogram = telemetry.registry.histogram(
        "netfilter.candidates_per_peer", buckets=(0, 1, 4, 16, 64, 256, 1024)
    )
    histogram.observe_bulk(np.repeat(np.arange(peers_holding.size), peers_holding))
