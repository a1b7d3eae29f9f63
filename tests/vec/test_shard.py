"""Determinism and merge-correctness tests for the sharded driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import NetFilterConfig
from repro.core.netfilter import one_shot_plan
from repro.errors import ConfigurationError
from repro.net.wire import SizeModel
from repro.vec import ShardPlan, VecNetFilter, build_table, run_sharded
from repro.vec.netfilter import barrier, finish, round1, round2

CONFIG = NetFilterConfig(filter_size=64, num_filters=2, threshold_ratio=0.01)


def plan(n_shards: int = 3) -> ShardPlan:
    return ShardPlan(
        n_peers=900, n_items=3_000, seed=17, n_shards=n_shards, config=CONFIG
    )


@pytest.fixture(scope="module")
def sharded():
    return run_sharded(plan(), jobs=1, return_truth=True)


class TestDeterminism:
    def test_jobs_invariant(self, sharded):
        concurrent = run_sharded(plan(), jobs=3)
        assert concurrent.digest == sharded.digest
        assert concurrent.result.frequent.to_dict() == sharded.result.frequent.to_dict()

    def test_replay_digest_stable(self, sharded):
        again = run_sharded(plan(), jobs=1)
        assert again.digest == sharded.digest

    def test_digest_sensitive_to_plan(self, sharded):
        other = run_sharded(
            ShardPlan(
                n_peers=900, n_items=3_000, seed=18, n_shards=3, config=CONFIG
            ),
            jobs=1,
        )
        assert other.digest != sharded.digest


class TestMergeCorrectness:
    def test_frequent_matches_merged_truth(self, sharded):
        truth = sharded.per_shard[0]["truth"]
        threshold = sharded.result.threshold
        expected = {int(i): int(v) for i, v in enumerate(truth) if v >= threshold}
        assert sharded.result.frequent.to_dict() == expected

    def test_grand_total_is_shard_sum(self, sharded):
        assert sharded.result.grand_total == sum(
            row["grand_total"] for row in sharded.per_shard
        )

    def test_all_peers_participate(self, sharded):
        assert sharded.result.n_participants == 900
        assert sharded.result.complete
        assert sharded.result.coverage == 1.0

    def test_candidate_values_exact(self, sharded):
        truth = sharded.per_shard[0]["truth"]
        for item_id, value in sharded.result.candidates:
            assert truth[item_id] == value

    def test_shard_count_partition(self):
        p = plan(7)
        assert sum(p.shard_peers(s) for s in range(7)) == p.n_peers
        assert sum(p.shard_instances(s) for s in range(7)) == 10 * p.n_items

    def test_single_shard_degenerate(self):
        p = plan(1)
        single = run_sharded(p, jobs=1, return_truth=True)
        truth = single.per_shard[0]["truth"]
        assert single.result.grand_total == int(np.sum(truth))

        # One shard under a super-root is VecNetFilter on the same table
        # plus exactly one tree edge, priced from the scalar specs.
        table = build_table(
            n_peers=p.n_peers,
            n_items=p.n_items,
            seed=p.seed,
            total_instances=p.shard_instances(0),
        ).table
        assert_one_more_edge(single.result, VecNetFilter(CONFIG).run(table), table)

        # The same where no ShardPlan reaches today: message headers, a
        # link latency and a fault mask, through the executor's own rounds.
        table.size_model, table.latency = SizeModel(header_bytes=16), 2.0
        table.alive[5:25] = False
        specs, reach = one_shot_plan(CONFIG), table.reachable_mask()
        first = round1(table, reach, specs.bank)
        heavy, threshold = barrier(specs, [first])
        second = round2(table, reach, specs.bank, heavy)
        hung, _ = finish(
            specs, [first], heavy, threshold, [second], population=p.n_peers, super_root=True
        )
        flat = VecNetFilter(CONFIG).run(table)
        assert flat.coverage < 1.0 and not flat.complete
        assert_one_more_edge(hung, flat, table)


def assert_one_more_edge(hung, flat, table):
    """``hung`` is ``flat``'s tree with its root hung under a super-root:
    the same answer, one more request and reply per phase, one more hop."""
    for name in ("threshold", "grand_total", "n_participants", "coverage", "complete"):
        assert getattr(hung, name) == getattr(flat, name), name
    assert hung.frequent.to_dict() == flat.frequent.to_dict()
    assert hung.candidates.to_dict() == flat.candidates.to_dict()

    specs, model = one_shot_plan(CONFIG), table.size_model
    totals, filtering, verification = specs.totals, specs.phase1, specs.verification
    totals_reply = totals.combiner.size_bytes((flat.grand_total, flat.n_participants), model)
    edge = {  # body bytes + one header per message, by the message's own category
        "control": totals.request_bytes(None, model)
        + totals_reply
        + filtering.request_bytes(None, model)
        + 3 * model.header_bytes,
        "filtering": filtering.combiner.size_bytes(None, model) + model.header_bytes,
        "dissemination": verification.request_bytes(flat.heavy_groups, model) + model.header_bytes,
        "aggregation": verification.combiner.size_bytes(flat.candidates, model)
        + model.header_bytes,
    }
    for category, one_edge in edge.items():
        delta = getattr(hung.breakdown, category) - getattr(flat.breakdown, category)
        assert round(delta * table.n_peers) == one_edge > 0, category
    assert hung.elapsed_time == flat.elapsed_time + 6 * table.latency


class TestValidation:
    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(n_peers=10, n_items=10, seed=0, n_shards=0, config=CONFIG)
        with pytest.raises(ConfigurationError):
            ShardPlan(n_peers=3, n_items=10, seed=0, n_shards=5, config=CONFIG)
