"""The repository's benchmark: seven named workloads over the simulator's
three execution tiers, end-to-end host metrics measured with tracing off,
and a traced pass whose per-layer self-times sum to the traced wall time.

Run it through ``perf/run.py`` (see ``perf/README.md``); the metric and
workload names declared in :mod:`perf.metrics` and ``BENCHMARK.json`` are
the contract later performance work cites.
"""
