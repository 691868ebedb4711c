"""Escalation message accounting (the ISSUE's satellite test).

The engine's claim is quantitative: escalated traffic pays the full
three-phase, ``O(n²)``-message pattern of the leader-based total order
(:mod:`repro.net.total_order`).  These tests pin the bill down exactly —
for ``k`` operations sequenced in ``b`` proposal batches by an ``n``-replica
lane (:class:`repro.net.team_lanes.TeamLane`; Tier ∞ is the lane whose
team is every replica):

* ``k``  ``to_submit`` messages (one per operation, client → leader),
* ``b·n``  ``to_propose``  (leader broadcast per batch),
* ``b·n²`` ``to_prepare`` and ``b·n²`` ``to_commit`` (all-to-all quorum
  phases),

so ``messages = k + b·(n + 2n²)``.  The leader pipelines one proposal at a
time: the first submission proposes alone, later submissions accumulate
while it is in flight — hence ``b = 1 + ceil((k−1)/max_batch)`` for
``k > 1``.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PendingOp, PipelinedExecutor
from repro.errors import NetworkError
from repro.net import (
    Network,
    Simulator,
    TeamLane,
    TeamLanePool,
    TotalOrderNode,
    UniformLatency,
)
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from tests.sync.sync_tap import tap_sync_results


def expected_bill(ops: int, replicas: int, max_batch: int) -> tuple[int, int]:
    """``(messages, batches)`` of one escalation of ``ops`` operations."""
    batches = 1 if ops == 1 else 1 + math.ceil((ops - 1) / max_batch)
    return ops + batches * (replicas + 2 * replicas * replicas), batches


def ordered_batch(count: int, start: int = 0) -> list[PendingOp]:
    return [
        PendingOp(start + i, i % 3, op("transfer", 1, 1)) for i in range(count)
    ]


class TestQuadraticBill:
    @pytest.mark.parametrize("replicas", [4, 7])
    @pytest.mark.parametrize("count", [1, 2, 5, 8, 64, 65, 130])
    def test_message_total_matches_three_phase_pattern(self, replicas, count):
        lane = TeamLane(range(replicas), seed=1, max_batch=64)
        result = lane.order(ordered_batch(count))
        want, _ = expected_bill(count, replicas, max_batch=64)
        assert result.messages == want
        assert lane.messages == want

    @pytest.mark.parametrize("max_batch", [1, 4, 64])
    def test_per_phase_counts(self, max_batch):
        """On the reference replica group the lane is held to
        (``tests/sync/test_lane_reference.py``), which counts per type."""
        replicas, count = 4, 10
        network = Network(Simulator(), UniformLatency(0.5, 1.5), seed=2)
        nodes = [
            TotalOrderNode(i, network, replicas, max_batch=max_batch)
            for i in range(replicas)
        ]
        for pending in ordered_batch(count):
            nodes[0].submit(pending)
        network.simulator.run()
        _, batches = expected_bill(count, replicas, max_batch)
        by_type = network.stats.by_type
        assert by_type["to_submit"] == count
        assert by_type["to_propose"] == batches * replicas
        # The two quorum phases are the O(n²) part, and they dominate.
        assert by_type["to_prepare"] == batches * replicas * replicas
        assert by_type["to_commit"] == batches * replicas * replicas

    def test_bill_accumulates_across_batches(self):
        lane = TeamLane(range(4), seed=3)
        first = lane.order(ordered_batch(3))
        second = lane.order(ordered_batch(5, start=3))
        want3, _ = expected_bill(3, 4, 64)
        want5, _ = expected_bill(5, 4, 64)
        assert (first.messages, second.messages) == (want3, want5)
        assert lane.messages == want3 + want5

    @pytest.mark.parametrize("k", [4, 7])
    @pytest.mark.parametrize("seed", [0, 9, 23])
    def test_price_is_a_function_of_k_not_of_the_tiers_name(self, k, seed):
        """Tier ∞ is a team lane of size n: a lane ordering on a private
        clock and the pool ordering the same batches on its own bill the
        same closed form, whatever the seed."""
        lane = TeamLane(range(k), seed=seed)
        pool = TeamLanePool(seed=seed)
        start = 0
        for count in (1, 5, 70):
            batch = ordered_batch(count, start)
            start += count
            want, _ = expected_bill(count, k, max_batch=64)
            alone = lane.order(batch)
            pooled = pool.order([(range(k), batch)])
            assert alone.messages == pooled.messages == want
            assert alone.teams == pooled.teams == 1
            assert alone.orders[0].ordered == pooled.orders[0].ordered
            assert list(alone.orders[0].ordered) == batch

    def test_lane_arithmetic_is_pinned(self):
        """n = 4, seed 0, batches of 1 / 5 / 70 / 3: the numbers every
        committed baseline's Tier ∞ share is made of cannot drift."""
        lane = TeamLane(range(4), seed=0)
        start = 0
        for count in (1, 5, 70, 3):
            result = lane.order(ordered_batch(count, start))
            start += count
        assert result.makespan == 5.9505912842994455
        assert result.messages == 75
        assert 0.0 < result.orders[0].completed < result.makespan


class TestOneSyncHook:
    """``replicas=`` is the executor's only sync hook, and the sync layer —
    its Tier ∞ lane the pool's top lane — is built in one place from the
    config."""

    def test_the_top_lane_defaults_to_four_replicas_on_the_pool_clock(self):
        token = ERC20TokenType(8, total_supply=80)
        engine = PipelinedExecutor(token, EngineConfig(seed=9))
        cluster = TokenCluster(token, ClusterConfig(seed=9))
        reference = TeamLane(range(4), seed=9).order(ordered_batch(5))
        for sync in (engine.sync, cluster.router.sync):
            lane = sync.global_lane
            assert lane is sync.pool.top
            assert type(lane) is TeamLane
            assert lane.k == 4
            # Seeded from the config: the same latency stream, and the
            # pool's clock moves by the top lane's round.
            pooled = sync.pool.order([(None, ordered_batch(5))])
            assert pooled.orders == reference.orders
            assert sync.pool.clock == pooled.makespan == reference.makespan

    def test_replicas_sizes_the_top_tier(self):
        token = ERC20TokenType(8, total_supply=80)
        engine = PipelinedExecutor(token, replicas=8)
        assert engine.sync.global_lane.k == 8
        assert engine.sync.global_lane.team == frozenset(range(8))

    def test_too_few_replicas_are_refused(self):
        token = ERC20TokenType(8, total_supply=80)
        with pytest.raises(NetworkError, match="3f"):
            PipelinedExecutor(token, replicas=3)

    def test_the_old_hooks_are_gone(self):
        token = ERC20TokenType(8, total_supply=80)
        lane = TeamLane(range(4))
        with pytest.raises(TypeError):
            PipelinedExecutor(token, sync=lane)
        with pytest.raises(TypeError):
            PipelinedExecutor(token, escalator=lane)
        with pytest.raises(TypeError):
            PipelinedExecutor(token, global_lane=lane)
        with pytest.raises(TypeError):
            TokenCluster(token, escalator=lane)


class TestEngineLevelAccounting:
    def test_round_escalation_bill_is_exactly_the_consensus_bill(self):
        """An engine round's escalation_messages equals the closed-form
        three-phase bill for the number of operations it escalated."""
        token = ERC20TokenType(8, total_supply=80)
        # team_threshold=0: the group must pay the global consensus lane
        # (the fast-path default would order it on a team lane instead).
        engine = PipelinedExecutor(
            token, EngineConfig(num_lanes=2, window=8, team_threshold=0)
        )
        # approve then two distinct spenders of account 0 — a
        # synchronization group that must escalate as one batch.
        results = tap_sync_results(engine.sync)
        engine.submit(0, op("approve", 1, 5))
        engine.run()
        engine.submit(1, op("transferFrom", 0, 2, 2))
        engine.submit(0, op("transfer", 3, 2))
        stats = engine.run()
        escalated = stats.rounds[-1].escalated_ops
        assert escalated >= 2
        want, _ = expected_bill(escalated, replicas=4, max_batch=64)
        assert results[-1].messages == want

    def test_owner_only_round_pays_nothing(self):
        token = ERC20TokenType(8, total_supply=80)
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=2, window=8))
        for pid in range(8):
            engine.submit(pid, op("transfer", (pid + 1) % 8, 1))
        stats = engine.run()
        assert stats.escalation_messages == 0
        assert stats.escalation_time == 0.0
