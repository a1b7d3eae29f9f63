"""Seeded fault-matrix smoke tests (the CI fault-matrix job).

Each cell of {loss, crash, partition, failover, delayburst} × {seed 1, 2,
3} runs a hardened netFilter trial with fault injection active — twice —
and asserts the determinism replay gate: identical JSONL traces,
identical results.  The ``failover`` and ``delayburst`` cells run with
hierarchy maintenance enabled: the first crashes the *root* mid-query
(recovery re-aims at the promoted successor), the second jitters the
heartbeat plane without any real failure.  The CI job selects one cell
per matrix entry with ``-k "<scenario> and seed<N>"``.

The trials record causal spans, so the replay gate also covers span ids
and causal links, and a failing cell's trace carries the full span tree.
When ``REPRO_FAULT_TRACE_DIR`` is set (the CI job sets it), traces land
in that directory — with a rendered run report next to each — instead of
the pytest tmpdir, so a failing cell's evidence survives as a CI
artifact.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter
from repro.core.oracle import oracle_frequent_items
from repro.core.recovery import RecoveryPolicy
from repro.faults import (
    BurstLoss,
    CrashPeer,
    DelayMessages,
    FaultInjector,
    FaultScenario,
    MessageMatch,
    PartitionLinks,
    RevivePeer,
)
from repro.hierarchy.builder import Hierarchy
from repro.hierarchy.maintenance import enable_maintenance
from repro.net.heartbeat import HeartbeatConfig
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import ReliabilityConfig, TransportConfig
from repro.sim.engine import Simulation
from repro.telemetry.sink import read_trace
from repro.workload.workload import Workload

from tests.test_determinism import strip_wall_clock

#: Scenarios that need the repair plane (heartbeats + failover) running.
MAINTAINED = ("failover", "delayburst")


def make_scenario(kind: str, network: Network) -> FaultScenario:
    if kind == "loss":
        return FaultScenario(
            name="smoke-loss",
            actions=(BurstLoss(start=500.0, duration=400.0, probability=0.3),),
        )
    if kind == "crash":
        # Crash two non-root internal peers mid-run, revive them later.
        return FaultScenario(
            name="smoke-crash",
            actions=(
                CrashPeer(peer=3, at=505.0),
                CrashPeer(peer=7, at=520.0),
                RevivePeer(peer=3, at=640.0),
                RevivePeer(peer=7, at=660.0),
            ),
        )
    if kind == "failover":
        # The root itself dies mid-query and never returns; maintenance
        # promotes the deterministic successor and recovery re-aims.
        return FaultScenario(
            name="smoke-failover",
            actions=(CrashPeer(peer=0, at=505.0),),
        )
    if kind == "delayburst":
        # No failures at all: heartbeat copies get held back in bursts,
        # exercising the adaptive detector under delivery jitter.
        beats = MessageMatch(payload_kind="HeartbeatPayload")
        return FaultScenario(
            name="smoke-delayburst",
            actions=(
                DelayMessages(match=beats, count=200, extra_delay=6.0, start=505.0),
                DelayMessages(match=beats, count=200, extra_delay=9.0, start=700.0),
            ),
        )
    assert kind == "partition"
    links = tuple(
        (0, neighbor) for neighbor in sorted(network.topology.adjacency[0])[:2]
    )
    return FaultScenario(
        name="smoke-partition",
        actions=(PartitionLinks(links=links, start=505.0, duration=120.0),),
    )


def run_smoke(kind: str, seed: int, trace_path: str) -> dict[int, float]:
    sim = Simulation(seed=seed)
    sim.telemetry.attach_jsonl(trace_path)
    sim.telemetry.enable_spans()
    topology = Topology.random_connected(24, 4.0, sim.rng.stream("topology"))
    network = Network(
        sim,
        topology,
        transport_config=TransportConfig(latency=1.0, latency_jitter=0.3),
        reliability=ReliabilityConfig(),
    )
    workload = Workload.zipf(
        n_items=400, n_peers=24, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    if kind in MAINTAINED:
        enable_maintenance(
            hierarchy, HeartbeatConfig(interval=5.0, timeout=16.0, jitter=0.5)
        )
    engine = AggregationEngine(hierarchy, child_timeout=120.0, hardened=True)
    FaultInjector(network, make_scenario(kind, network)).install()
    result = NetFilter(
        NetFilterConfig(filter_size=40, num_filters=2, threshold_ratio=0.01),
        recovery=RecoveryPolicy(min_coverage=0.99, reissue_delay=100.0),
    ).run(engine)
    sim.telemetry.close()
    return result.frequent.to_dict()


@pytest.mark.parametrize("seed", [1, 2, 3], ids=lambda s: f"seed{s}")
@pytest.mark.parametrize(
    "scenario", ["loss", "crash", "partition", "failover", "delayburst"]
)
def test_fault_matrix_replays_identically(scenario, seed, tmp_path):
    artifact_dir = os.environ.get("REPRO_FAULT_TRACE_DIR")
    base = pathlib.Path(artifact_dir) if artifact_dir else tmp_path
    base.mkdir(parents=True, exist_ok=True)
    first_path = str(base / f"{scenario}-seed{seed}-first.jsonl")
    second_path = str(base / f"{scenario}-seed{seed}-second.jsonl")
    first = run_smoke(scenario, seed, first_path)
    second = run_smoke(scenario, seed, second_path)
    if artifact_dir:
        # Render the run reports *before* the replay assertions, so a
        # failing cell still leaves human-readable evidence to upload.
        from repro.telemetry.report import build_report, render_report
        from repro.telemetry.sink import iter_trace

        for path in (first_path, second_path):
            rendered = render_report(build_report(iter_trace(path), path=path))
            pathlib.Path(path + ".report.txt").write_text(rendered, encoding="utf-8")
    assert first == second
    a = strip_wall_clock(read_trace(first_path))
    b = strip_wall_clock(read_trace(second_path))
    assert len(a) == len(b)
    for index, (left, right) in enumerate(zip(a, b)):
        assert left == right, (
            f"{scenario}/seed{seed} trace diverges at record {index}: "
            f"{left!r} != {right!r}"
        )
    kinds = {record["kind"] for record in a}
    assert "fault.injected" in kinds or scenario == "partition"
    assert "netfilter.run" in kinds


@pytest.mark.parametrize("seed", [1, 2, 3], ids=lambda s: f"seed{s}")
def test_soak_replays_identically(seed, tmp_path):
    """The continuous-service cell: a ~50-epoch churn soak (Poisson churn
    x burst loss x suspend windows x flash crowds) run twice, with the
    harness's own per-epoch invariants active, under the same replay and
    artifact contract as the one-shot cells."""
    from repro.experiments.soak import SoakConfig, run_soak

    artifact_dir = os.environ.get("REPRO_FAULT_TRACE_DIR")
    base = pathlib.Path(artifact_dir) if artifact_dir else tmp_path
    base.mkdir(parents=True, exist_ok=True)
    first_path = str(base / f"soak-seed{seed}-first.jsonl")
    second_path = str(base / f"soak-seed{seed}-second.jsonl")
    config = SoakConfig.smoke(seed)
    first = run_soak(config, trace_path=first_path)
    second = run_soak(config, trace_path=second_path)
    if artifact_dir:
        from repro.telemetry.report import build_report, render_report
        from repro.telemetry.sink import iter_trace

        for path in (first_path, second_path):
            rendered = render_report(build_report(iter_trace(path), path=path))
            pathlib.Path(path + ".report.txt").write_text(rendered, encoding="utf-8")
    assert first.digest == second.digest
    assert first.rows == second.rows
    assert first.summary == second.summary
    a = strip_wall_clock(read_trace(first_path))
    b = strip_wall_clock(read_trace(second_path))
    assert len(a) == len(b)
    for index, (left, right) in enumerate(zip(a, b)):
        assert left == right, (
            f"soak/seed{seed} trace diverges at record {index}: "
            f"{left!r} != {right!r}"
        )
    kinds = {record["kind"] for record in a}
    assert "service.commit" in kinds
    assert "fault.injected" in kinds
    assert "churn.failure" in kinds


@pytest.mark.parametrize("seed", [1, 2, 3], ids=lambda s: f"seed{s}")
def test_frontdoor_overload_replays_identically(seed, tmp_path):
    """The front-door cell: a multi-tenant overload run (flash crowds x
    burst loss x a root crash/revive) where every verdict — committed,
    degraded, or rejected-with-reason — feeds a replay digest, under the
    same trace and artifact contract as the other cells."""
    from repro.experiments.overload import OverloadConfig, run_overload

    artifact_dir = os.environ.get("REPRO_FAULT_TRACE_DIR")
    base = pathlib.Path(artifact_dir) if artifact_dir else tmp_path
    base.mkdir(parents=True, exist_ok=True)
    first_path = str(base / f"frontdoor-seed{seed}-first.jsonl")
    second_path = str(base / f"frontdoor-seed{seed}-second.jsonl")
    config = OverloadConfig.smoke(seed)
    first = run_overload(config, trace_path=first_path)
    second = run_overload(config, trace_path=second_path)
    if artifact_dir:
        from repro.telemetry.report import build_report, render_report
        from repro.telemetry.sink import iter_trace

        for path in (first_path, second_path):
            rendered = render_report(build_report(iter_trace(path), path=path))
            pathlib.Path(path + ".report.txt").write_text(rendered, encoding="utf-8")
    assert first.digest == second.digest
    assert first.request_rows == second.request_rows
    assert first.summary == second.summary
    a = strip_wall_clock(read_trace(first_path))
    b = strip_wall_clock(read_trace(second_path))
    assert len(a) == len(b)
    for index, (left, right) in enumerate(zip(a, b)):
        assert left == right, (
            f"frontdoor/seed{seed} trace diverges at record {index}: "
            f"{left!r} != {right!r}"
        )
    kinds = {record["kind"] for record in a}
    assert "frontdoor.submit" in kinds
    assert "frontdoor.session" in kinds
    assert "frontdoor.reject" in kinds
    assert "fault.injected" in kinds


# ----------------------------------------------------------------------
# One contract, three front ends
# ----------------------------------------------------------------------
# NetFilter+RecoveryPolicy, MonitorService and FrontDoor all run
# repro.core.session's one attempt under its one supervision loop, so the
# same three faults must get the same treatment from each: an answer is
# oracle-exact and complete or it is flagged, nothing commits below the
# coverage floor, every failure is named from one vocabulary, and the run
# replays byte-identically.  (No seed axis: the CI matrix selects the cells
# above with ``-k "<scenario> and seed<N>"`` and must not pick these up.)

CONTRACT_FILTER = NetFilterConfig(filter_size=40, num_filters=2, threshold_ratio=0.01)
#: Shorter than one convergecast (a round trip over a tree of depth >= 2
#: at latency 1.0), so every deadline-bound attempt misses it.
TIGHT_DEADLINE = 2.0


def contract_scenario(kind: str, hierarchy: Hierarchy, now: float) -> FaultScenario | None:
    from repro.net.wire import CostCategory

    if kind == "rootcrash":
        # The root dies on the first phase-1 reply and is back 60 later.
        return FaultScenario(
            name="contract-rootcrash",
            actions=(
                CrashPeer(peer=0, on_match=MessageMatch(category=CostCategory.FILTERING)),
                RevivePeer(peer=0, at=now + 60.0),
            ),
        )
    if kind == "partition":
        # A whole subtree is cut off for good: its peers stay alive (and
        # expected), so no session can ever cover the live population.
        child = sorted(hierarchy.children_of(0))[0]
        return FaultScenario(
            name="contract-partition",
            actions=(PartitionLinks(links=((0, child),), start=now, duration=1e9),),
        )
    assert kind == "deadline"
    return None


def run_contract(front_end: str, kind: str, trace_path: str) -> list[dict]:
    """Drive one front end through one fault; returns one verdict per
    answer it gave: ``committed`` (for NetFilter: flagged ``complete``),
    ``reason``, ``coverage``, and the ``items``/``threshold`` to check
    against the oracle."""
    from repro.core.continuous import ContinuousNetFilter
    from repro.frontdoor import COMMITTED, FrontDoor, FrontDoorConfig
    from repro.service import MonitorService, ServiceConfig

    sim = Simulation(seed=7)
    sim.telemetry.attach_jsonl(trace_path)
    topology = Topology.random_connected(16, 4.0, sim.rng.stream("topology"))
    network = Network(
        sim,
        topology,
        transport_config=TransportConfig(latency=1.0, latency_jitter=0.3),
        reliability=ReliabilityConfig(),
    )
    workload = Workload.zipf(
        n_items=400, n_peers=16, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy, child_timeout=6.0, hardened=True)
    scenario = contract_scenario(kind, hierarchy, sim.now)
    if scenario is not None:
        FaultInjector(network, scenario).install()
    deadline = TIGHT_DEADLINE if kind == "deadline" else 100.0
    verdicts: list[dict] = []
    if front_end == "netfilter":
        # A one-shot query has no deadline; it flags instead of failing.
        result = NetFilter(
            CONTRACT_FILTER, recovery=RecoveryPolicy(reissue_delay=40.0)
        ).run(engine)
        verdicts.append(
            {
                "committed": result.complete,
                "reason": "",
                "coverage": result.coverage,
                "items": result.frequent,
                "threshold": result.threshold,
            }
        )
    elif front_end == "monitor":
        service = MonitorService(
            ContinuousNetFilter(CONTRACT_FILTER, engine),
            ServiceConfig(epoch_interval=120.0, deadline=deadline, retry_backoff=10.0),
        )
        for outcome in service.run(epochs=3):
            result = outcome.report.result if outcome.report else None
            verdicts.append(
                {
                    "committed": outcome.committed,
                    "reason": outcome.reason,
                    "coverage": result.coverage if result else 0.0,
                    "items": result.frequent if result else None,
                    "threshold": result.threshold if result else 0,
                }
            )
    else:
        assert front_end == "frontdoor"
        door = FrontDoor(
            engine,
            CONTRACT_FILTER,
            FrontDoorConfig(
                round_interval=30.0, session_deadline=min(deadline, 25.0), client_timeout=200.0
            ),
        )
        ids = []
        for requester in (3, 5, 7):
            ids.append(door.submit("acme", requester, 0.01, 0))
            door.run(sim.now + door.config.round_interval)
        door.drain()
        for request_id in ids:
            record = door.outcome(request_id)
            verdicts.append(
                {
                    "committed": record.status == COMMITTED,
                    "reason": record.reason,
                    "coverage": 1.0 if record.status == COMMITTED else 0.0,
                    "items": record.items,
                    "threshold": record.threshold,
                }
            )
    # The oracle is read while the trace is still open: every verdict's
    # items are checked against the live population as it stands now.
    for verdict in verdicts:
        verdict["truth"] = (
            oracle_frequent_items(network, verdict["threshold"])
            if verdict["committed"]
            else None
        )
    sim.telemetry.close()
    return verdicts


@pytest.mark.parametrize("front_end", ["netfilter", "monitor", "frontdoor"])
@pytest.mark.parametrize("kind", ["rootcrash", "deadline", "partition"])
def test_front_ends_share_one_failure_contract(kind, front_end, tmp_path):
    from repro.core import session

    first_path = str(tmp_path / "first.jsonl")
    second_path = str(tmp_path / "second.jsonl")
    verdicts = run_contract(front_end, kind, first_path)
    replay = run_contract(front_end, kind, second_path)

    # One reason vocabulary (plus the front door's own client-side
    # verdicts, which never come from a session).
    reasons = {
        session.ROOT_DEAD,
        session.DEADLINE,
        session.ROOT_LOST,
        session.MEMBERSHIP_CHANGED,
        session.COVERAGE,
    }
    if front_end == "frontdoor":
        reasons |= {"timeout", "breaker_open"}
    assert verdicts
    for verdict in verdicts:
        if verdict["committed"]:
            # Nothing commits below the floor, and what commits is exact.
            assert verdict["reason"] == ""
            assert verdict["coverage"] == 1.0
            assert verdict["items"] == verdict["truth"]
        elif front_end != "netfilter":
            assert verdict["reason"] in reasons

    # The fault decided the outcome it should have.
    committed = [verdict["committed"] for verdict in verdicts]
    if kind == "partition" or (kind == "deadline" and front_end != "netfilter"):
        assert not any(committed)
    else:
        assert any(committed)  # recovered after the revive / no deadline to miss
    if front_end == "monitor" and kind != "rootcrash":
        # Too slow fails on the deadline; finished-but-short on the gate.
        expected = session.DEADLINE if kind == "deadline" else session.COVERAGE
        assert {verdict["reason"] for verdict in verdicts} == {expected}

    # Trace-level evidence for the front door, whose records carry no
    # coverage: a session that committed ran three fully covered phases.
    a = strip_wall_clock(read_trace(first_path))
    completes: list[dict] = []
    for record in a:
        if record["kind"] == "aggregation.complete":
            completes.append(record)
        elif record["kind"] in ("frontdoor.session_retry", "service.abandon"):
            assert record["reason"] in reasons
        elif (
            record["kind"] == "frontdoor.session"
            and record.get("ev") == "end"
            and record["committed"]
        ):
            assert all(c["covered"] >= c["expected"] for c in completes[-3:])

    # Same seed, same bytes.
    assert [v["items"] for v in verdicts] == [v["items"] for v in replay]
    for verdict, again in zip(verdicts, replay):
        for key in ("committed", "reason", "coverage", "threshold"):
            assert verdict[key] == again[key]
    b = strip_wall_clock(read_trace(second_path))
    assert a == b
