"""Hash-based item partitioning (Section III-B.1) and multi-filter
pruning (Section III-B.2).

Partitioning items into groups must not require global coordination — no
peer knows the full item universe — so the paper uses hashing: every peer
applies the same hash function(s) to its local items and accumulates local
values per group.

The hash family matters more than the paper lets on.  Item identifiers are
typically *structured* (consecutive integers, address blocks, ...), and a
plain ``(a·x + c) mod g`` maps structured ids onto a strided subset of the
groups whenever ``gcd(a, g) > 1``, concentrating mass in few groups and
wrecking the false-positive analysis.  We therefore hash ids through the
splitmix64 finalizer (a full-avalanche 64-bit mixer) salted per filter:
``h_i(x) = mix64(x XOR salt_i) mod g``.  This behaves like the uniform
random hashing Formula 4 assumes, for any id structure, and is fully
vectorizable.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.items.itemset import LocalItemSet

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_1, _SHIFT_2, _SHIFT_3 = np.uint64(30), np.uint64(27), np.uint64(31)


def splitmix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a bijective full-avalanche 64-bit mixer.

    Vectorized over a ``uint64`` array of one or more dimensions, whose
    arithmetic wraps silently — the intended behaviour.
    """
    z = values.astype(np.uint64, copy=False) + _GOLDEN
    z ^= z >> _SHIFT_1
    z *= _MUL_1
    z ^= z >> _SHIFT_2
    z *= _MUL_2
    z ^= z >> _SHIFT_3
    return z


#: Ids hashed per pass of the kernel: the ``(f, block)`` temporaries of the
#: mix stay cache-resident, so neither the cost per id nor the scratch
#: memory grows with ``k``.
_BLOCK = 8192


def salted_groups(
    item_ids: np.ndarray, salts: np.ndarray | np.uint64, n_groups: int
) -> np.ndarray:
    """``h_s(x) = mix64(x XOR s) mod n_groups`` for every salt ``s``.

    The one hash kernel.  ``salts`` (``uint64``) is a 0-d salt — the
    single-filter case, giving shape ``(k,)`` — or a column of shape
    ``(f, 1)``, which hashes the ``k`` ids under ``f`` filters as one
    ``(f, k)`` block.  Returns ``int64`` groups in ``[0, n_groups)``.
    """
    ids = np.asarray(item_ids, dtype=np.int64).view(np.uint64)
    modulus = np.uint64(n_groups)
    groups = np.empty(salts.shape[:-1] + ids.shape, dtype=np.uint64)
    for start in range(0, ids.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        np.remainder(splitmix64(ids[block] ^ salts), modulus, out=groups[..., block])
    return groups.view(np.int64)


class HashFilter:
    """One salted hash function mapping item ids to ``g`` item groups.

    Parameters
    ----------
    n_groups:
        ``g`` — the filter size.
    salt:
        64-bit per-filter salt; two filters with different salts behave as
        independent hash functions (Section III-B.2's requirement).
    """

    def __init__(self, n_groups: int, salt: int) -> None:
        if n_groups <= 0:
            raise ConfigurationError(f"n_groups must be positive, got {n_groups}")
        self.n_groups = n_groups
        self.salt = int(salt) & 0xFFFFFFFFFFFFFFFF

    def group_of(self, item_ids: np.ndarray) -> np.ndarray:
        """Vectorized ``h(x)`` — the group id of each item."""
        return salted_groups(item_ids, np.uint64(self.salt), self.n_groups)

    def local_group_values(self, item_set: LocalItemSet) -> np.ndarray:
        """A peer's local aggregate per item group: each local item's value
        is added to the group the item hashes to (Section III-B.1)."""
        summed = np.zeros(self.n_groups, dtype=np.int64)
        np.add.at(summed, self.group_of(item_set.ids), item_set.values)
        return summed


class FilterBank:
    """``f`` independent hash filters of size ``g`` (Section III-B.2).

    The bank turns a peer's local item set into one flat ``f·g`` vector of
    local group values (the phase-1 contribution, costing ``s_a · f · g``
    bytes per peer on the wire) and, given the heavy groups, decides which
    local items remain candidates.  Both hash the peer's ids once, through
    all ``f`` filters at a time (:meth:`flat_groups`).

    Examples
    --------
    >>> bank = FilterBank(num_filters=2, filter_size=8, hash_seed=3)
    >>> items = LocalItemSet.from_pairs({10: 4, 11: 2})
    >>> bank.local_group_aggregates(items).shape
    (16,)
    >>> int(bank.local_group_aggregates(items).sum())  # mass is conserved per filter
    12
    """

    def __init__(self, num_filters: int, filter_size: int, hash_seed: int = 0) -> None:
        if num_filters <= 0:
            raise ConfigurationError(f"num_filters must be positive, got {num_filters}")
        self.num_filters = num_filters
        self.filter_size = filter_size
        self.hash_seed = hash_seed
        rng = np.random.default_rng(hash_seed)
        self.filters = [
            HashFilter(filter_size, salt=int(rng.integers(0, 1 << 63)))
            for _ in range(num_filters)
        ]
        self._salts = np.array([f.salt for f in self.filters], dtype=np.uint64)[:, None]
        self._offsets = (np.arange(num_filters, dtype=np.int64) * filter_size)[:, None]

    @property
    def total_groups(self) -> int:
        """``f · g`` — the length of the phase-1 aggregate vector."""
        return self.num_filters * self.filter_size

    def flat_groups(self, item_ids: np.ndarray) -> np.ndarray:
        """Shape ``(f, k)``: row ``i`` holds ``i·g + h_i(x)`` per item —
        each item's position in the flat ``f·g`` vector under filter i."""
        flat = salted_groups(item_ids, self._salts, self.filter_size)
        flat += self._offsets
        return flat

    # ------------------------------------------------------------------
    # Phase 1: group aggregates
    # ------------------------------------------------------------------
    def local_group_aggregates(self, item_set: LocalItemSet) -> np.ndarray:
        """A peer's phase-1 contribution: the ``f`` per-filter group-value
        vectors, concatenated into one flat ``f·g`` vector (exact int64)."""
        flat = np.zeros(self.total_groups, dtype=np.int64)
        for positions in self.flat_groups(item_set.ids):
            np.add.at(flat, positions, item_set.values)
        return flat

    def split_aggregate(self, flat: np.ndarray) -> list[np.ndarray]:
        """Split a flat ``f·g`` aggregate back into per-filter vectors."""
        flat = np.asarray(flat)
        if flat.shape != (self.total_groups,):
            raise ConfigurationError(
                f"aggregate vector must have shape ({self.total_groups},), "
                f"got {flat.shape}"
            )
        return [
            flat[i * self.filter_size : (i + 1) * self.filter_size]
            for i in range(self.num_filters)
        ]

    def heavy_groups_per_filter(
        self, flat_aggregate: np.ndarray, threshold: float
    ) -> list[np.ndarray]:
        """Per filter, the ids of the heavy item groups (aggregate ≥ t)."""
        return [
            np.flatnonzero(vector >= threshold)
            for vector in self.split_aggregate(flat_aggregate)
        ]

    # ------------------------------------------------------------------
    # Phase 2: candidate decision
    # ------------------------------------------------------------------
    def heavy_lookup(self, heavy_groups: Sequence[np.ndarray]) -> np.ndarray:
        """The flat ``f·g`` boolean marking each filter's heavy groups."""
        if len(heavy_groups) != self.num_filters:
            raise ConfigurationError(
                f"expected {self.num_filters} heavy-group arrays, "
                f"got {len(heavy_groups)}"
            )
        lookup = np.zeros((self.num_filters, self.filter_size), dtype=bool)
        for row, heavy in zip(lookup, heavy_groups):
            row[np.asarray(heavy, dtype=np.int64)] = True
        return lookup.reshape(-1)

    def candidate_mask(
        self, item_ids: np.ndarray, heavy_groups: np.ndarray | Sequence[np.ndarray]
    ) -> np.ndarray:
        """Which of ``item_ids`` survive all ``f`` filters.

        An item is a candidate iff, for every filter, the group it hashes
        to is heavy (Section III-B.2: Item x survives, Item y is pruned).
        ``heavy_groups`` is the flat :meth:`heavy_lookup` boolean (what
        ``HeavyGroups.lookup`` keeps), or the per-filter heavy group ids
        it is built from.
        """
        if not isinstance(heavy_groups, np.ndarray):
            heavy_groups = self.heavy_lookup(heavy_groups)
        mask: np.ndarray = heavy_groups[self.flat_groups(item_ids)].all(axis=0)
        return mask
