"""Escalation message accounting (the ISSUE's satellite test).

The engine's claim is quantitative: escalated traffic pays the full
three-phase, ``O(n²)``-message pattern of the leader-based total order
(:mod:`repro.net.total_order`).  These tests pin the bill down exactly —
for ``k`` operations sequenced in ``b`` proposal batches by an ``n``-replica
cluster:

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

from repro.config import EngineConfig
from repro.engine import ConsensusEscalator, PendingOp, PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op


def expected_bill(ops: int, replicas: int, max_batch: int) -> tuple[int, int]:
    """``(messages, batches)`` of one escalation of ``ops`` operations."""
    batches = 1 if ops == 1 else 1 + math.ceil((ops - 1) / max_batch)
    return ops + batches * (replicas + 2 * replicas * replicas), batches


def ordered_batch(count: int) -> list[PendingOp]:
    return [PendingOp(i, i % 3, op("transfer", 1, 1)) for i in range(count)]


class TestQuadraticBill:
    @pytest.mark.parametrize("replicas", [4, 7])
    @pytest.mark.parametrize("count", [1, 2, 5, 8, 64, 65, 130])
    def test_message_total_matches_three_phase_pattern(self, replicas, count):
        escalator = ConsensusEscalator(
            num_replicas=replicas, seed=1, max_batch=64
        )
        result = escalator.order(ordered_batch(count))
        want, _ = expected_bill(count, replicas, max_batch=64)
        assert result.messages == want
        assert escalator.total_messages == want

    @pytest.mark.parametrize("max_batch", [1, 4, 64])
    def test_per_phase_counts(self, max_batch):
        replicas, count = 4, 10
        escalator = ConsensusEscalator(
            num_replicas=replicas, seed=2, max_batch=max_batch
        )
        escalator.order(ordered_batch(count))
        _, batches = expected_bill(count, replicas, max_batch)
        by_type = escalator.network.stats.by_type
        assert by_type["to_submit"] == count
        assert by_type["to_propose"] == batches * replicas
        # The two quorum phases are the O(n²) part, and they dominate.
        assert by_type["to_prepare"] == batches * replicas * replicas
        assert by_type["to_commit"] == batches * replicas * replicas

    def test_bill_accumulates_across_batches(self):
        escalator = ConsensusEscalator(num_replicas=4, seed=3)
        first = escalator.order(ordered_batch(3))
        second = escalator.order(ordered_batch(5))
        want3, _ = expected_bill(3, 4, 64)
        want5, _ = expected_bill(5, 4, 64)
        assert (first.messages, second.messages) == (want3, want5)
        assert escalator.total_messages == want3 + want5
        assert escalator.batches == 2


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
        engine.submit(0, op("approve", 1, 5))
        engine.run()
        engine.submit(1, op("transferFrom", 0, 2, 2))
        engine.submit(0, op("transfer", 3, 2))
        stats = engine.run()
        escalated = stats.rounds[-1].escalated_ops
        assert escalated >= 2
        want, _ = expected_bill(escalated, replicas=4, max_batch=64)
        assert stats.rounds[-1].escalation_messages == want

    def test_owner_only_round_pays_nothing(self):
        token = ERC20TokenType(8, total_supply=80)
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=2, window=8))
        for pid in range(8):
            engine.submit(pid, op("transfer", (pid + 1) % 8, 1))
        stats = engine.run()
        assert stats.escalation_messages == 0
        assert stats.escalation_time == 0.0
