"""Serial equivalence across tier assignments (the ISSUE's property suite).

The tiered sync layer must be *transparent*: for any ``team_threshold``
(including 0 = always-global and huge = team-everything), any team
schedule, any window size, and any workload, the engine's and cluster's
final state and every response equal a plain sequential execution of the
workload in submission order.  Thresholds move the message bill between
tiers — they must never move the outcome.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.commutativity import audit_static_kinds
from repro.engine import PipelinedExecutor
from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    serial_reference,
)

THRESHOLDS = (0, 1, 2, 4, 8, 64)


def approval_items(n, seed, count, spender_pool=4):
    return TokenWorkloadGenerator(
        n,
        seed=seed,
        mix=APPROVAL_HEAVY_MIX,
        spender_pool=spender_pool,
    ).generate(count)


class TestEngineTierEquivalence:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_state_and_responses_match_spec(self, threshold):
        token = ERC20TokenType(16, total_supply=320)
        items = approval_items(16, seed=71, count=300)
        ref_state, ref_responses = serial_reference(token, items)
        engine = PipelinedExecutor(
            ERC20TokenType(16, total_supply=320),
            EngineConfig(num_lanes=4, window=16, team_threshold=threshold),
        )
        state, responses, stats = engine.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses
        assert stats.team_ops + stats.global_ops == stats.escalated_ops

    def test_outcome_invariant_across_thresholds(self):
        items = approval_items(12, seed=29, count=250)
        outcomes = []
        for threshold in THRESHOLDS:
            engine = PipelinedExecutor(
                ERC20TokenType(12, total_supply=240),
                EngineConfig(num_lanes=4, window=16, team_threshold=threshold),
            )
            state, responses, _ = engine.run_workload(items)
            outcomes.append((state, responses))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        threshold=st.sampled_from(THRESHOLDS),
        window=st.sampled_from([4, 16, 48]),
        pool=st.sampled_from([0, 3, 4]),
    )
    def test_hypothesis_sweep(self, seed, threshold, window, pool):
        token = ERC20TokenType(16, total_supply=160)
        items = TokenWorkloadGenerator(
            16,
            seed=seed,
            mix=SPENDER_HEAVY_MIX,
            spender_pool=pool,
            hotspot_fraction=0.4,
            hotspot_accounts=2,
        ).generate(120)
        ref_state, ref_responses = serial_reference(token, items)
        engine = PipelinedExecutor(
            ERC20TokenType(16, total_supply=160),
            EngineConfig(num_lanes=4, window=window, team_threshold=threshold),
        )
        state, responses, _ = engine.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses

    def test_validated_run_with_teams_on(self):
        """With team lanes active the run matches the spec, and the oracle
        audit of its windows stays green."""
        token = ERC20TokenType(10, total_supply=200)
        items = approval_items(10, seed=13, count=200)
        engine = PipelinedExecutor(
            ERC20TokenType(10, total_supply=200),
            EngineConfig(num_lanes=4, window=16, team_threshold=4),
        )
        state, responses, stats = engine.run_workload(items)
        assert (state, responses) == serial_reference(token, items)
        assert stats.team_ops > 0
        assert audit_static_kinds(token, items, 16).violations == []

    def test_determinism_per_configuration(self):
        items = approval_items(12, seed=5, count=200)
        runs = [
            PipelinedExecutor(
                ERC20TokenType(12, total_supply=240),
                EngineConfig(num_lanes=4, window=16, seed=7, team_threshold=4),
            ).run_workload(items)
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2].as_dict() == runs[1][2].as_dict()


class TestClusterTierEquivalence:
    @pytest.mark.parametrize("threshold", (0, 2, 4, 16))
    @pytest.mark.parametrize("nodes", (1, 3, 5))
    def test_state_and_responses_match_spec(self, threshold, nodes):
        token = ERC20TokenType(16, total_supply=320)
        items = approval_items(16, seed=71, count=200)
        ref_state, ref_responses = serial_reference(token, items)
        cluster = TokenCluster(
            ERC20TokenType(16, total_supply=320),
            ClusterConfig(
                num_nodes=nodes,
                lanes_per_node=4,
                window=16,
                team_threshold=threshold,
            ),
        )
        state, responses, stats = cluster.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses
        assert stats.team_ops + stats.global_ops == stats.escalated_ops

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        threshold=st.sampled_from((0, 2, 4, 16)),
        nodes=st.sampled_from((2, 4)),
    )
    def test_hypothesis_sweep(self, seed, threshold, nodes):
        """Any threshold × any node count: the knobs move messages and
        leases, never the outcome."""
        token = ERC20TokenType(12, total_supply=240)
        items = TokenWorkloadGenerator(
            12,
            seed=seed,
            mix=SPENDER_HEAVY_MIX,
            spender_pool=4,
        ).generate(120)
        ref_state, ref_responses = serial_reference(token, items)
        cluster = TokenCluster(
            ERC20TokenType(12, total_supply=240),
            ClusterConfig(
                num_nodes=nodes,
                lanes_per_node=4,
                window=16,
                seed=seed,
                team_threshold=threshold,
            ),
        )
        state, responses, _ = cluster.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses

    def test_tiered_cluster_pays_less_than_global(self):
        items = approval_items(24, seed=7, count=400)
        stats = {}
        for threshold in (0, 4):
            cluster = TokenCluster(
                ERC20TokenType(24, total_supply=2400),
                ClusterConfig(
                    num_nodes=4,
                    lanes_per_node=4,
                    window=16,
                    seed=7,
                    team_threshold=threshold,
                ),
            )
            _, _, stats[threshold] = cluster.run_workload(items)
        assert stats[4].team_ops > 0
        assert (
            stats[4].escalation_messages < stats[0].escalation_messages
        )


class TestTierStatsSurface:
    """The per-tier accounting (and the backpressure counters) must be
    part of the JSON summaries the benchmarks publish."""

    def test_engine_summary_keys(self):
        engine = PipelinedExecutor(
            ERC20TokenType(8, total_supply=80),
            EngineConfig(num_lanes=2, window=8),
        )
        engine.run_workload(approval_items(8, seed=3, count=50))
        summary = engine.stats.as_dict()
        for key in (
            "team_ops",
            "global_ops",
            "team_messages",
            "global_messages",
            "k_histogram",
            "mean_team_size",
            "max_concurrent_teams",
            "rejected_ops",
        ):
            assert key in summary

    def test_cluster_summary_keys(self):
        cluster = TokenCluster(
            ERC20TokenType(8, total_supply=80),
            ClusterConfig(num_nodes=2, window=8),
        )
        cluster.run_workload(approval_items(8, seed=3, count=50))
        summary = cluster.stats.as_dict()
        for key in (
            "team_ops",
            "global_ops",
            "team_messages",
            "global_messages",
            "team_k_histogram",
            "mean_team_size",
            "max_concurrent_teams",
            "dropped_ops",
        ):
            assert key in summary
        for bill in summary["node_bills"]:
            assert "sync_wait_time" in bill
