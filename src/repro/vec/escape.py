"""The dense↔sparse escape hatch.

The vectorized tier owns the regular bulk; anything irregular — a
faulted subtree under repair, a straggler investigation, an
exactness audit — escapes to the event engine by *materializing* a
sub-population: the chosen peers are re-labelled densely, their tree
edges become a scalar :class:`~repro.net.overlay.Topology`, their CSR
slices become per-peer :class:`~repro.items.itemset.LocalItemSet`\\ s,
and a full event-driven stack (simulation, network, hierarchy, engine)
is assembled over them.  ``Hierarchy.build`` over a tree overlay
reproduces exactly that tree, so the scalar stack sees the *same*
hierarchy the columnar state describes.

:func:`verify_sampled_subpopulation` is the audit built on top: sample a
subtree, run the scalar :class:`~repro.core.netfilter.NetFilter` on the
materialized copy and :class:`~repro.vec.netfilter.VecNetFilter` on the
columnar sub-table, and compare answers and byte accounting.  This is
the exactness check a million-peer run can afford — the full
differential gate at small N lives in ``tests/vec/test_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter, NetFilterResult
from repro.errors import ConfigurationError
from repro.hierarchy.builder import Hierarchy
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.sim.engine import Simulation
from repro.telemetry import Telemetry
from repro.vec.engine import VEC_ESCAPE_KIND
from repro.vec.netfilter import VecNetFilter
from repro.vec.state import PeerTable


@dataclass
class MaterializedPopulation:
    """A sub-population lifted back into the scalar representation."""

    sim: Simulation
    network: Network
    hierarchy: Hierarchy
    engine: AggregationEngine
    #: Original peer id of each dense id (``mapping[new] == old``).
    mapping: np.ndarray


def materialize_population(
    table: PeerTable, seed: int = 0, telemetry: Telemetry | None = None
) -> MaterializedPopulation:
    """Assemble a full event-driven stack over a (sub-)table.

    The table's tree edges become the overlay, so the rebuilt scalar
    hierarchy is *identical* to the columnar one (BFS over a tree admits
    exactly one spanning tree).  Dead peers are failed *after* the build
    — the static-fault state the dense tier models.
    """
    n = table.n_peers
    non_root = np.flatnonzero(np.arange(n) != table.root)
    parents = table.parent[non_root]
    if np.any(parents < 0):
        raise ConfigurationError("cannot materialize detached peers")
    edges = [(int(p), int(c)) for p, c in zip(parents, non_root)]
    sim = Simulation(seed=seed)
    network = Network(
        sim,
        Topology.from_edges(n, edges, name="vec-escape"),
        size_model=table.size_model,
    )
    network.assign_items({peer: table.materialize(peer) for peer in range(n)})
    hierarchy = Hierarchy.build(network, root=table.root)
    # Escape boundary: per-peer object surgery is the point here.
    for peer in np.flatnonzero(~table.alive):  # repro-lint: disable=PERF002
        network.fail_peer(int(peer))
    if telemetry is not None:
        telemetry.emit(VEC_ESCAPE_KIND, direction="materialize", peers=n)
    return MaterializedPopulation(
        sim=sim,
        network=network,
        hierarchy=hierarchy,
        engine=AggregationEngine(hierarchy),
        mapping=np.arange(n, dtype=np.int64),
    )


def sample_subtree(
    table: PeerTable, max_peers: int, min_peers: int = 2
) -> np.ndarray:
    """Deterministically pick a subtree with ``min_peers <= size <=
    max_peers`` — the largest qualifying subtree, smallest root id on
    ties, so the audit sample is a pure function of the table."""
    sizes = table.subtree_sizes()
    eligible = np.flatnonzero(
        (sizes >= min_peers) & (sizes <= max_peers) & (table.depth >= 0)
    )
    if eligible.size == 0:
        raise ConfigurationError(
            f"no subtree has between {min_peers} and {max_peers} peers"
        )
    best = eligible[np.argmax(sizes[eligible])]
    return table.subtree_peers(int(best))


@dataclass(frozen=True)
class SubpopulationAudit:
    """Outcome of one scalar-vs-vectorized audit on a sampled subtree."""

    match: bool
    peers_sampled: int
    scalar: NetFilterResult
    vectorized: NetFilterResult
    mismatches: tuple[str, ...]

    def raise_on_mismatch(self) -> None:
        if not self.match:
            raise AssertionError(
                "vectorized tier diverged from the scalar engine on the "
                f"sampled sub-population: {', '.join(self.mismatches)}"
            )


def compare_results(
    scalar: NetFilterResult, vectorized: NetFilterResult
) -> tuple[str, ...]:
    """Field-by-field comparison of two runs; returns mismatch labels."""
    mismatches = []
    if scalar.frequent.to_dict() != vectorized.frequent.to_dict():
        mismatches.append("frequent")
    if scalar.candidates.to_dict() != vectorized.candidates.to_dict():
        mismatches.append("candidates")
    if scalar.threshold != vectorized.threshold:
        mismatches.append("threshold")
    if scalar.grand_total != vectorized.grand_total:
        mismatches.append("grand_total")
    if scalar.n_participants != vectorized.n_participants:
        mismatches.append("n_participants")
    if scalar.heavy_groups.counts != vectorized.heavy_groups.counts:
        mismatches.append("heavy_groups")
    for category in ("filtering", "dissemination", "aggregation", "control"):
        if getattr(scalar.breakdown, category) != getattr(
            vectorized.breakdown, category
        ):
            mismatches.append(f"bytes:{category}")
    if abs(scalar.avg_candidates_per_peer - vectorized.avg_candidates_per_peer) > 1e-12:
        mismatches.append("avg_candidates_per_peer")
    if scalar.coverage != vectorized.coverage:
        mismatches.append("coverage")
    if scalar.complete != vectorized.complete:
        mismatches.append("complete")
    return tuple(mismatches)


def verify_sampled_subpopulation(
    table: PeerTable,
    config: NetFilterConfig,
    *,
    max_peers: int = 2_000,
    min_peers: int = 2,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> SubpopulationAudit:
    """Audit the vectorized tier against the scalar engine on a sampled
    subtree of ``table`` — the acceptance check for large runs.

    Both engines execute netFilter over the *same* sub-population (the
    scalar one via :func:`materialize_population`); every result field
    and byte category must agree exactly.
    """
    peers = sample_subtree(table, max_peers=max_peers, min_peers=min_peers)
    sub = table.subset(peers)
    materialized = materialize_population(sub, seed=seed, telemetry=telemetry)
    scalar_result = NetFilter(config).run(materialized.engine)
    vec_result = VecNetFilter(config).run(sub)
    mismatches = compare_results(scalar_result, vec_result)
    return SubpopulationAudit(
        match=not mismatches,
        peers_sampled=int(peers.size),
        scalar=scalar_result,
        vectorized=vec_result,
        mismatches=mismatches,
    )
