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
verification reply: :func:`subtree_candidate_pairs` gives every peer a
bitset of the candidates in its subtree and ORs them up the levels, so
each reply's exact distinct count is a popcount — no message simulated
and no population-sized sort.

Trace emission is aggregated per batch: one ``vec.phase`` event per
phase instead of one record per message, so telemetry and cost curves
stay honest at a million peers.
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
    candidate ids, ascending) — its bit in the subtree bitsets.
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

    ``materialize_candidates`` across the population: the same
    ``bank.candidate_mask`` call each scalar peer makes on its own ids,
    applied once to every reachable row, so rows keep their CSR order.
    Only the survivors are sorted, to rank them into ``universe``.
    """
    at = np.flatnonzero(reachable_flat_mask(table, reach))
    at = at[bank.candidate_mask(table.item_ids[at], heavy.lookup(bank))]
    universe, rank = np.unique(table.item_ids[at], return_inverse=True)
    return CandidateRows(
        peer=table.flat_peer_ids()[at],
        rank=rank,
        value=table.item_values[at],
        universe=universe,
    )


def candidate_global_values(rows: CandidateRows) -> np.ndarray:
    """Exact global value per candidate (int64 scatter-add over rows)."""
    out = np.zeros(rows.n_candidates, dtype=np.int64)
    np.add.at(out, rows.rank, rows.value)
    return out


#: Set bits of each byte value: a ``uint64`` array's popcount gathers this
#: over its ``uint8`` view (numpy 1.x has no popcount ufunc).
POPCOUNT8 = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def popcount(words: np.ndarray) -> int:
    """Total set bits of a contiguous ``uint64`` array."""
    return int(POPCOUNT8[words.view(np.uint8)].sum(dtype=np.int64))


def subtree_candidate_pairs(
    table: PeerTable, rows: CandidateRows
) -> tuple[int, int]:
    """The phase-2 reply sizes, computed as a batched subtree merge.

    Every non-root reachable peer's reply carries the *distinct*
    candidate ids of its subtree (Algorithm 2's keyed-sum merge).  Each
    peer holds that set as a bitset over ``rank``, one ``uint64`` word
    per 64 candidates.  Walking the levels deepest first, a level's
    words are complete once its children have been OR-ed in: their
    popcount is the level's total reply payload, and they are then
    OR-ed into the parents.  The root's popcount is its distinct count.

    Cost: O(⌈K/64⌉·N) array work for K candidates and N peers, one word
    at a time so the scratch column stays at 8 B per peer.

    Returns ``(total pairs sent, root distinct count)``.
    """
    order, starts = table.level_order()
    bit = np.left_shift(np.uint64(1), (rows.rank & 63).astype(np.uint64))
    pairs_sent = root_count = 0
    for index in range(-(-rows.n_candidates // 64)):
        held = (rows.rank >> 6) == index
        bits = np.zeros(table.n_peers, dtype=np.uint64)
        np.bitwise_or.at(bits, rows.peer[held], bit[held])
        for d in range(starts.size - 2, 0, -1):
            level = order[starts[d] : starts[d + 1]]
            words = bits[level]
            pairs_sent += popcount(words)
            np.bitwise_or.at(bits, table.parent[level], words)
        root_count += popcount(bits[table.root : table.root + 1])
    return pairs_sent, root_count


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
