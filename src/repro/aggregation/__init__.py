"""Aggregate computation (Section III-A.2 of the paper).

Peers collaborate to compute the *aggregate* of locally-held values: the
leaf nodes of the hierarchy propagate their local contributions upstream,
internal nodes merge what they receive with their own contribution and
forward the result, and the root ends up with the global aggregate.

The machinery is generic over *what* is aggregated:

* :mod:`repro.aggregation.combiners` — the merge algebra (scalar sums,
  fixed-length vector sums, keyed sums over item sets, ...), each knowing
  its own wire size.
* :mod:`repro.aggregation.spec` — an :class:`~repro.aggregation.spec.AggregateSpec`
  bundles a combiner with each peer's contribution function and the cost
  categories its traffic is charged to.
* :mod:`repro.aggregation.hierarchical` — the convergecast engine: request
  broadcast down the tree, merged replies up the tree, with timeouts so a
  failed child cannot stall its parent forever.

Push-sum gossip, the paper's stated future-work alternative, is an array
program in :mod:`repro.vec.gossip`.

Every netFilter phase and the naive baseline are thin layers over this
package: candidate filtering is a vector-sum aggregation, candidate
verification is a keyed-sum aggregation with the heavy-group list riding
in the request, and the naive approach is a keyed-sum over full item sets.
"""

from repro.aggregation.combiners import (
    Combiner,
    KeyedSumCombiner,
    MaxCombiner,
    MinCombiner,
    ScalarSumCombiner,
    TupleCombiner,
    VectorSumCombiner,
)
from repro.aggregation.hierarchical import AggregationEngine, SessionHandle
from repro.aggregation.spec import AggregateSpec

__all__ = [
    "AggregateSpec",
    "AggregationEngine",
    "Combiner",
    "KeyedSumCombiner",
    "MaxCombiner",
    "MinCombiner",
    "ScalarSumCombiner",
    "SessionHandle",
    "TupleCombiner",
    "VectorSumCombiner",
]
