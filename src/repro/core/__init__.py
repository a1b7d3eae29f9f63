"""The paper's contribution: the netFilter protocol and its analysis.

* :mod:`repro.core.config` — protocol configuration (filter size ``g``,
  filter count ``f``, threshold ratio ``ρ``).
* :mod:`repro.core.filters` — hash-based item partitioning and the
  multi-filter bank (Section III-B).
* :mod:`repro.core.verification` — heavy-group bookkeeping and candidate
  set materialization (Section III-C, Algorithm 2).
* :mod:`repro.core.netfilter` — the two-phase protocol (Algorithm 1).
* :mod:`repro.core.session` — one attempt of it and the one retry /
  coverage-gate loop every front end runs it under.
* :mod:`repro.core.naive` — the naive full-collection baseline
  (Section IV-B).
* :mod:`repro.core.oracle` — centralized ground truth for exactness tests.
* :mod:`repro.core.optimizer` — optimal ``g`` and ``f`` (Formulae 3-6).
* :mod:`repro.core.sampling` — in-network parameter estimation
  (Section IV-E, Formulae 7-8).
* :mod:`repro.core.cost_model` — the analytic cost model (Formulae 1-2, 5).

Concurrent-request sharing via the minimum threshold (Section III-A.1)
lives in the query front door, :mod:`repro.frontdoor.batching`.
"""

from repro.core.approximate import (
    ApproximateConfig,
    ApproximateIFIProtocol,
    ApproximateResult,
)
from repro.core.config import NetFilterConfig
from repro.core.continuous import ContinuousNetFilter, EpochReport
from repro.core.cost_model import naive_cost_bounds, netfilter_cost
from repro.core.filters import FilterBank, HashFilter
from repro.core.naive import NaiveProtocol, NaiveResult
from repro.core.netfilter import NetFilter, NetFilterResult
from repro.core.optimizer import (
    OptimalSettings,
    ParameterEstimates,
    derive_optimal_settings,
    expected_heterogeneous_false_positives,
    optimal_filter_count,
    optimal_filter_size,
)
from repro.core.oracle import oracle_frequent_items
from repro.core.sampling import ParameterEstimator, SamplingConfig
from repro.core.sketches import CountMinSketch
from repro.core.verification import HeavyGroups, materialize_candidates

__all__ = [
    "ApproximateConfig",
    "ApproximateIFIProtocol",
    "ApproximateResult",
    "ContinuousNetFilter",
    "CountMinSketch",
    "EpochReport",
    "FilterBank",
    "HashFilter",
    "HeavyGroups",
    "NaiveProtocol",
    "NaiveResult",
    "NetFilter",
    "NetFilterConfig",
    "NetFilterResult",
    "OptimalSettings",
    "ParameterEstimates",
    "ParameterEstimator",
    "SamplingConfig",
    "derive_optimal_settings",
    "expected_heterogeneous_false_positives",
    "materialize_candidates",
    "naive_cost_bounds",
    "netfilter_cost",
    "optimal_filter_count",
    "optimal_filter_size",
    "oracle_frequent_items",
]
