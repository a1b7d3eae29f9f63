"""The issue's acceptance scenario, end to end.

An internal hierarchy node crashes mid-phase-1 (triggered by its child's
FILTERING reply, which then lands on a corpse).  The unhardened stack
merges the partial aggregate, prunes the frequent item's group, and
reports a wrong answer — flagged by coverage accounting but not
recovered.  The hardened stack (ACK/retransmit + re-probe + requester
re-issue) waits out the crash, re-runs the query once the peer revives,
and returns the exact IFI set with ``complete=True``.  Both runs replay
bit-for-bit under the same seed with injection active.
"""

from __future__ import annotations

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter, NetFilterResult
from repro.core.recovery import RecoveryPolicy
from repro.faults import CrashPeer, FaultInjector, FaultScenario, MessageMatch, RevivePeer
from repro.hierarchy.builder import Hierarchy
from repro.items.itemset import LocalItemSet
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import ReliabilityConfig
from repro.net.wire import CostCategory
from repro.sim.engine import Simulation
from repro.telemetry.sink import read_trace

from tests.test_determinism import strip_wall_clock

#: Item 100 is frequent (40 + 40 = 80 >= t = 50) but lives entirely on
#: peers 3 and 4 — downstream of peer 2, the crash victim; peers 0-2 hold
#: only background singletons.
ITEMS = {0: {1: 10}, 1: {2: 10}, 2: {3: 10}, 3: {100: 40}, 4: {100: 40}}
CONFIG = NetFilterConfig(filter_size=8, num_filters=2, threshold=50)


def run_scenario(
    hardened: bool, seed: int = 11, trace_path: str | None = None
) -> NetFilterResult:
    """Line 0-1-2-3-4 (hierarchy = the chain, root 0); crash peer 2 when
    peer 3 sends its phase-1 reply; revive it 80 time units later."""
    sim = Simulation(seed=seed)
    if trace_path is not None:
        sim.telemetry.attach_jsonl(trace_path)
    network = Network(
        sim,
        Topology.line(5),
        reliability=ReliabilityConfig() if hardened else None,
    )
    network.assign_items(
        {peer: LocalItemSet.from_pairs(pairs) for peer, pairs in ITEMS.items()}
    )
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy, child_timeout=40.0, hardened=hardened)
    scenario = FaultScenario(
        name="crash-mid-phase-1",
        actions=(
            CrashPeer(
                peer=2,
                on_match=MessageMatch(sender=3, category=CostCategory.FILTERING),
            ),
            RevivePeer(peer=2, at=sim.now + 80.0),
        ),
    )
    FaultInjector(network, scenario).install()
    netfilter = NetFilter(
        CONFIG,
        recovery=RecoveryPolicy(reissue_delay=60.0) if hardened else None,
    )
    result = netfilter.run(engine)
    if trace_path is not None:
        sim.telemetry.close()
    return result


def test_unhardened_drops_the_frequent_item_but_detects_it():
    result = run_scenario(hardened=False)
    assert result.frequent.to_dict() == {}  # item 100 silently pruned...
    assert not result.complete  # ...but no longer *silently*:
    assert result.coverage < 1.0  # coverage accounting flags the loss


def test_hardened_recovers_the_exact_answer():
    result = run_scenario(hardened=True)
    assert result.frequent.to_dict() == {100: 80}
    assert result.complete
    assert result.coverage == 1.0
    assert result.reissues >= 1


def test_faulted_run_replays_bit_for_bit(tmp_path):
    """The determinism gate holds with fault injection active, for both
    the failing and the recovering stack."""
    for hardened in (False, True):
        name = "hardened" if hardened else "baseline"
        first_path = str(tmp_path / f"{name}-1.jsonl")
        second_path = str(tmp_path / f"{name}-2.jsonl")
        first = run_scenario(hardened, trace_path=first_path)
        second = run_scenario(hardened, trace_path=second_path)
        assert first.frequent.to_dict() == second.frequent.to_dict()
        a = strip_wall_clock(read_trace(first_path))
        b = strip_wall_clock(read_trace(second_path))
        assert len(a) == len(b)
        for index, (left, right) in enumerate(zip(a, b)):
            assert left == right, f"{name} trace diverges at record {index}"
        kinds = {record["kind"] for record in a}
        assert "fault.injected" in kinds
        if hardened:
            assert "request.reissued" in kinds
        else:
            assert "aggregation.incomplete" in kinds


def test_reissues_count_a_discarded_whole_query_retry():
    """Regression: when the whole-query re-issue comes back with *lower*
    coverage the earlier result is kept — but the network still carried
    the retry, so ``reissues`` must count it."""
    from repro.faults import PartitionLinks

    sim = Simulation(seed=11)
    network = Network(sim, Topology.star(5))
    network.assign_items(
        {peer: LocalItemSet.from_pairs(pairs) for peer, pairs in ITEMS.items()}
    )
    engine = AggregationEngine(
        Hierarchy.build(network, root=0), child_timeout=10.0, hardened=True
    )
    now = sim.now
    # Leaf 4 is cut off throughout (coverage 4/5); from t+1000 — inside
    # the 1000-long settle before the whole-query retry — leaf 3 is too
    # (coverage 3/5), so the retry is strictly worse and discarded.
    scenario = FaultScenario(
        name="worse-on-retry",
        actions=(
            PartitionLinks(links=((0, 4),), start=now, duration=1e9),
            PartitionLinks(links=((0, 3),), start=now + 1000.0, duration=1e9),
        ),
    )
    FaultInjector(network, scenario).install()
    result = NetFilter(
        CONFIG,
        recovery=RecoveryPolicy(
            max_phase_reissues=0,
            max_query_reissues=1,
            reissue_delay=1000.0,
        ),
    ).run(engine)
    assert sim.now > now + 1000.0  # the retry ran under the second cut
    assert sim.trace.counters["request.reissued"] == 1
    assert not result.complete
    assert result.coverage == 0.8  # the first, better-covered result was kept
    assert result.reissues == 1  # ... and still owns the retry it cost
