"""The same-seed replay gate.

Runs one full netFilter trial twice with the same seed and asserts the
two JSONL telemetry traces are identical event-for-event — same kinds,
same simulated timestamps, same field values — modulo wall-clock fields
(``wall_elapsed``), which spans record by design.

This is the dynamic half of the determinism contract; the static half
is ``repro.lint`` (see docs/LINT_RULES.md).  The two deliberately cover
each other's blind spots: CPython's set iteration order is stable
within one interpreter, so this gate alone cannot catch a DET003
violation — and the linter alone cannot prove the event *content*
matches.

The golden digests below additionally pin the *bytes* of the seed-7
trace (spans on, ``wall_elapsed`` stripped) so a change to how the trace
is encoded or ordered cannot pass as long as it is merely self-consistent.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.netfilter import NetFilter, NetFilterConfig
from repro.hierarchy.builder import Hierarchy
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import TransportConfig
from repro.sim.engine import Simulation
from repro.telemetry.sink import read_trace
from repro.workload.workload import Workload

#: Span end records carry wall-clock durations; everything else in a
#: trace must replay exactly.
WALL_CLOCK_FIELDS = ("wall_elapsed",)


#: sha256 of the seed-7 spans trace with ``wall_elapsed`` stripped (see
#: :func:`trace_digest`), per JSONL sampling factor.  Regenerate only for
#: an intended change to the trace format or the protocol's event stream.
GOLDEN_SPANS_DIGESTS = {
    1: "54c9b95e1456bbf94db099a06f72a0d19efe1672f7646075310535d707fa7980",
    3: "22eaa28e2fcbc4af00ada4c16fe60e87b9254f0c46797aede86c2de324235c0f",
}

_WALL_CLOCK_TEXT = re.compile(r', "wall_elapsed": [^,}]+')


def run_trial(
    seed: int, trace_path: str, *, spans: bool = False, sample_every: int = 1
) -> dict[int, float]:
    """One traced netFilter trial; returns the frequent-item result."""
    sim = Simulation(seed=seed)
    sim.telemetry.attach_jsonl(trace_path, sample_every=sample_every)
    if spans:
        sim.telemetry.enable_spans(sample_every=sample_every)
    topology = Topology.random_connected(36, 4.0, sim.rng.stream("topology"))
    network = Network(
        sim,
        topology,
        transport_config=TransportConfig(latency=1.0, latency_jitter=0.4),
    )
    workload = Workload.zipf(
        n_items=600, n_peers=36, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy)
    config = NetFilterConfig(filter_size=40, num_filters=3, threshold_ratio=0.01)
    result = NetFilter(config).run(engine)
    sim.telemetry.close()
    return result.frequent.to_dict()


def strip_wall_clock(records: list[dict]) -> list[dict]:
    return [
        {key: value for key, value in record.items() if key not in WALL_CLOCK_FIELDS}
        for record in records
    ]


def trace_digest(trace_path: str) -> str:
    """sha256 of the trace file's bytes with every ``wall_elapsed`` field
    cut out of its line."""
    with open(trace_path, encoding="utf-8") as handle:
        text = _WALL_CLOCK_TEXT.sub("", handle.read())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_same_seed_runs_replay_trace_identically(tmp_path):
    first_path = str(tmp_path / "first.jsonl")
    second_path = str(tmp_path / "second.jsonl")

    first_result = run_trial(seed=7, trace_path=first_path)
    second_result = run_trial(seed=7, trace_path=second_path)

    assert first_result == second_result

    first = strip_wall_clock(read_trace(first_path))
    second = strip_wall_clock(read_trace(second_path))
    assert len(first) == len(second)

    # Every record must match, including timestamps; report the first
    # divergence precisely rather than dumping both traces.
    for index, (a, b) in enumerate(zip(first, second)):
        assert a == b, f"trace diverges at record {index}: {a!r} != {b!r}"

    # The traces actually exercised the protocol (and its RNG paths).
    kinds = {record["kind"] for record in first}
    assert "netfilter.run" in kinds
    assert "msg.sent" in kinds
    # Jitter > 0 means delivery times are RNG-driven; identical traces
    # therefore prove the RNG streams replayed, not just the topology.
    delivered = [r for r in first if r["kind"] == "msg.delivered"]
    assert delivered


def test_different_seeds_diverge(tmp_path):
    """Guard the gate itself: with different seeds the traces differ, so
    the equality above is not vacuously comparing constants."""
    a_path = str(tmp_path / "a.jsonl")
    b_path = str(tmp_path / "b.jsonl")
    run_trial(seed=1, trace_path=a_path)
    run_trial(seed=2, trace_path=b_path)
    a = strip_wall_clock(read_trace(a_path))
    b = strip_wall_clock(read_trace(b_path))
    assert a != b


@pytest.mark.parametrize("sample_every", sorted(GOLDEN_SPANS_DIGESTS))
def test_spans_trace_bytes_are_pinned(tmp_path, sample_every):
    """The seed-7 spans trace is byte-identical to the pinned golden."""
    path = str(tmp_path / "spans.jsonl")
    run_trial(seed=7, trace_path=path, spans=True, sample_every=sample_every)
    assert trace_digest(path) == GOLDEN_SPANS_DIGESTS[sample_every]
