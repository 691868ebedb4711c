"""One sync bill: each run's aggregate is the fold of its rounds' results.

The sync layer returns one :class:`~repro.sync.escalation.SyncRoundResult`
per round; ``EngineStats.record_round`` and ``ClusterStats.record_round``
fold it, and no per-round record copies it.  These tests collect the
results of a run that escalates on team *and* global lanes and hold every
sync leaf of the aggregate to their sum, with one window in flight and
with several (a pipelined cluster may finish its rounds out of order).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import SPENDER_HEAVY_MIX, TokenWorkloadGenerator
from tests.sync.sync_tap import tap_sync_results


def _items():
    return TokenWorkloadGenerator(
        12, seed=5, mix=SPENDER_HEAVY_MIX, spender_pool=4
    ).generate(200)


def _assert_fold(stats, results, histogram) -> None:
    # The run pays both tiers, so the fold is exercised on each.
    assert sum(r.team_ops for r in results) > 0
    assert sum(r.global_ops for r in results) > 0
    assert stats.team_ops == sum(r.team_ops for r in results)
    assert stats.global_ops == sum(r.global_ops for r in results)
    assert stats.team_messages == sum(r.team_messages for r in results)
    assert stats.global_messages == sum(r.global_messages for r in results)
    assert stats.escalation_messages == sum(r.messages for r in results)
    assert stats.escalation_time == sum(r.virtual_time for r in results)
    sizes = Counter(size for r in results for size in r.team_sizes)
    assert histogram == dict(sizes)
    assert stats.max_concurrent_teams == max(r.teams for r in results)


@pytest.mark.parametrize("depth", (1, 3))
def test_engine_stats_fold_the_round_results(depth):
    engine = PipelinedExecutor(
        ERC20TokenType(12, total_supply=240),
        EngineConfig(
            num_lanes=4, window=16, team_threshold=2, pipeline_depth=depth
        ),
    )
    results = tap_sync_results(engine.sync)
    _, _, stats = engine.run_workload(_items())
    _assert_fold(stats, results, stats.k_histogram)
    assert not hasattr(stats.rounds[0], "team_sizes")


@pytest.mark.parametrize("depth", (1, 2))
def test_cluster_stats_fold_the_round_results(depth):
    cluster = TokenCluster(
        ERC20TokenType(12, total_supply=240),
        ClusterConfig(
            num_nodes=4,
            lanes_per_node=4,
            window=16,
            team_threshold=3,
            pipeline_depth=depth,
        ),
    )
    results = tap_sync_results(cluster.router.sync)
    _, _, stats = cluster.run_workload(_items())
    _assert_fold(stats, results, stats.team_k_histogram)
    assert stats.escalations == sum(1 for r in results if r.messages)
    assert not hasattr(stats.round_log[0], "team_sizes")
