"""Columnar vectorized execution tier for million-peer simulations.

The event-driven engine in :mod:`repro.sim` prices every message
individually — the right tool for irregular behaviour (faults, repair,
churn, stragglers), and a per-event ceiling of a few hundred thousand
peers.  This package holds the dense tier that removes that ceiling:

* :mod:`repro.vec.state` — peer state (tree, liveness, per-peer item
  vectors) as numpy columnar arrays (:class:`PeerTable`);
* :mod:`repro.vec.build` — vectorized population construction and the
  deterministic sharding model (:func:`build_table`);
* :mod:`repro.vec.engine` — the phase kernels: whole convergecast phases
  as batch array programs, and the per-edge pricing of one phase;
* :mod:`repro.vec.netfilter` — the one array executor of Algorithm 1
  (two rounds around the phase barrier, one ``finish`` that prices a
  forest of trees) and :class:`VecNetFilter`, which runs it over one
  tree and returns the scalar engine's ``NetFilterResult``;
* :mod:`repro.vec.escape` — the dense↔sparse escape hatch and the
  sampled-subpopulation exactness audit;
* :mod:`repro.vec.shard` — the multiprocess space-sharding driver
  (:func:`run_sharded`): the same executor over ``K`` trees, which puts
  an N=10^6 run on all cores;
* :mod:`repro.vec.gossip` — push-sum gossip over the live overlay's CSR
  and the hierarchy-free gossip netFilter (Section VI's future work),
  the comparators of the hierarchical design.

What the hierarchical protocol computes and what each message costs
are not restated here: the executor runs the event engine's own
:func:`~repro.core.netfilter.one_shot_plan`.  The contract with the
scalar tier is *exact equivalence* on statically faulted networks: same
frequent-item sets, same byte totals per cost category, pinned by
``tests/vec/test_equivalence.py``.
"""

from repro.vec.build import BuiltShard, build_table, shard_rng
from repro.vec.escape import (
    MaterializedPopulation,
    SubpopulationAudit,
    compare_results,
    materialize_population,
    sample_subtree,
    verify_sampled_subpopulation,
)
from repro.vec.netfilter import VecNetFilter
from repro.vec.shard import ShardPlan, ShardedResult, replay_digest, run_sharded
from repro.vec.state import PeerTable

__all__ = [
    "BuiltShard",
    "MaterializedPopulation",
    "PeerTable",
    "ShardPlan",
    "ShardedResult",
    "SubpopulationAudit",
    "VecNetFilter",
    "build_table",
    "compare_results",
    "materialize_population",
    "replay_digest",
    "run_sharded",
    "sample_subtree",
    "shard_rng",
    "verify_sampled_subpopulation",
]
