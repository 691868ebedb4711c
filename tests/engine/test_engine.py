"""Unit tests for the engine's moving parts (mempool, graph, shards,
escalation, executor plumbing)."""

from __future__ import annotations

import pytest

from repro.analysis.commutativity import PairKind
from repro.config import EngineConfig
from repro.engine import (
    Mempool,
    OpClassifier,
    PendingOp,
    PipelinedExecutor,
)
from repro.engine.rounds import plan_window
from repro.engine.shard import dag_list_schedule
from repro.errors import EngineError, InvalidArgumentError, NetworkError
from repro.net import TeamLane
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from repro.sync import TieredEscalator
from repro.workloads import (
    EXAMPLE1_RESPONSES,
    OWNER_ONLY_MIX,
    TokenWorkloadGenerator,
    example1_trace,
)
from tests import reference

N = 8


@pytest.fixture
def token():
    return ERC20TokenType(N, total_supply=10 * N)


class TestMempool:
    def test_sequence_stamps_are_submission_order(self):
        pool = Mempool()
        a = pool.submit(0, op("transfer", 1, 2))
        b = pool.submit(1, op("balanceOf", 0))
        assert (a.seq, b.seq) == (0, 1)
        assert len(pool) == 2
        assert pool.pop_window(1) == [a]

    def test_pop_window_is_fifo(self):
        pool = Mempool()
        submitted = [pool.submit(0, op("balanceOf", 0)) for _ in range(5)]
        assert pool.pop_window(3) == submitted[:3]
        assert pool.pop_window(10) == submitted[3:]
        assert not pool

    def test_feed_workload_items(self):
        pool = Mempool()
        items = TokenWorkloadGenerator(N, seed=1).generate(7)
        pending = pool.feed(items)
        assert [p.operation for p in pending] == [i.operation for i in items]
        assert pool.submitted == 7

    def test_rejects_non_operations(self):
        with pytest.raises(InvalidArgumentError):
            Mempool().submit(0, "transfer")

    def test_a_pending_op_renders_its_stamp_caller_and_operation(self):
        pending = Mempool().submit(3, op("transfer", 1, 2))
        assert str(pending) == "#0 p3.transfer(1, 2)"
        assert repr(pending) == "op(0,3,transfer(1, 2))"

    def test_rejects_bad_window(self):
        with pytest.raises(InvalidArgumentError):
            Mempool().pop_window(0)


class TestConflictGraph:
    def test_components_split_independent_accounts(self, token):
        ops = [
            PendingOp(0, 0, op("transfer", 1, 2)),  # chain {0,1}: bal(1)
            PendingOp(1, 1, op("transfer", 2, 2)),
            PendingOp(2, 4, op("transfer", 5, 2)),  # independent singleton
            PendingOp(3, 6, op("balanceOf", 7)),  # singleton read
        ]
        plan = plan_window(OpClassifier(token), ops)
        assert (plan.chains, plan.singletons) == ([[0, 1]], [2, 3])
        assert reference.plan(token, ops).edges == {(0, 1): PairKind.CONFLICT}

    def test_commute_pairs_counted(self, token):
        ops = [PendingOp(i, i, op("balanceOf", i)) for i in range(4)]
        assert plan_window(OpClassifier(token), ops).singletons == [0, 1, 2, 3]
        assert reference.plan(token, ops).edges == {}


class TestDagSchedule:
    def _schedule(self, token, lanes, pending):
        """Schedule one window on fresh lanes; returns ``seq -> (start,
        finish, lane)``."""
        plan = plan_window(OpClassifier(token), pending)
        placed = dag_list_schedule(plan.preds, plan.priorities, [0] * lanes)
        return {op.seq: slot for op, slot in zip(pending, placed)}

    def _window(self):
        singles = [
            PendingOp(i, i % N, op("balanceOf", i % N)) for i in range(17)
        ]
        chain = [PendingOp(50 + j, 1, op("transfer", 2, 1)) for j in range(5)]
        return singles, chain

    def test_schedule_is_deterministic(self, token):
        singles, chain = self._window()
        p1 = self._schedule(token, 4, singles + chain)
        p2 = self._schedule(token, 4, singles + chain)
        assert p1 == p2

    def test_conflict_chains_stay_ordered(self, token):
        chain = [PendingOp(j, 0, op("transfer", 1, 1)) for j in range(4)]
        at = self._schedule(token, 3, chain)
        assert [at[seq][0] for seq in range(4)] == [0, 1, 2, 3]
        assert max(finish for _, finish, _ in at.values()) == 4

    def test_commuting_burst_on_one_account_spreads_over_lanes(self, token):
        burst = [PendingOp(i, i % N, op("balanceOf", 0)) for i in range(12)]
        at = self._schedule(token, 4, burst)
        assert {lane for _, _, lane in at.values()} == {0, 1, 2, 3}
        # Perfectly balanced.
        assert max(finish for _, finish, _ in at.values()) == 3

    def test_all_ops_preserved(self, token):
        singles, chain = self._window()
        at = self._schedule(token, 4, singles + chain)
        assert sorted(at) == sorted(o.seq for o in singles + chain)
        assert len(at) == 22


class TestEscalation:
    def test_orders_in_submission_order_with_costs(self):
        lane = TeamLane(range(4), seed=3)
        ops = [PendingOp(i, i % 4, op("transfer", 1, 1)) for i in range(5)]
        result = lane.order(ops)
        [order] = result.orders
        assert list(order.ordered) == ops
        assert result.makespan >= order.completed > 0
        # 3-phase quorum protocol: strictly more than one message per op.
        assert result.messages > len(ops)
        # A long-lived lane keeps no past operations: it holds no
        # container at all but its team.
        held = (list, tuple, dict, set)
        assert not [v for v in vars(lane).values() if isinstance(v, held)]

    def test_empty_batch_is_free(self):
        lane = TeamLane(range(4))
        result = lane.order([])
        assert result.orders == ()
        assert result.makespan == 0.0
        assert result.messages == 0
        assert lane.clock == 0.0

    def test_clock_accumulates_across_batches(self):
        lane = TeamLane(range(4), seed=5)
        first = lane.order([PendingOp(0, 0, op("transfer", 1, 1))])
        t1 = lane.clock
        second = lane.order([PendingOp(1, 1, op("transfer", 2, 1))])
        # One clock for the lane's whole life; each round reports its own
        # share of it.
        assert lane.clock > t1
        assert first.makespan == t1
        assert second.makespan == lane.clock - t1

    def test_rejects_tiny_cluster(self):
        with pytest.raises(NetworkError, match="3f"):
            TieredEscalator(3, team_threshold=4)


class TestExecutor:
    def test_example1_trace(self):
        """The paper's Example 1 executes with its published responses."""
        token = ERC20TokenType(3, total_supply=10)
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=2, window=4))
        state, responses, stats = engine.run_workload(example1_trace())
        assert tuple(responses) == EXAMPLE1_RESPONSES
        assert state.balances == (8, 2, 0)
        assert stats.ops_executed == 4

    def test_owner_only_traffic_never_escalates(self, token):
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=4, window=32))
        items = TokenWorkloadGenerator(N, seed=11, mix=OWNER_ONLY_MIX).generate(
            200
        )
        _, _, stats = engine.run_workload(items)
        assert stats.escalated_ops == 0
        assert stats.escalation_messages == 0

    def test_two_spender_race_escalates(self, token):
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=2, window=8))
        engine.submit(0, op("approve", 1, 5))
        engine.run()
        engine.submit(1, op("transferFrom", 0, 2, 2))
        engine.submit(0, op("transfer", 3, 2))  # owner spend: 2nd spender
        stats = engine.run()
        assert stats.escalated_ops >= 2
        assert stats.escalation_messages > 0

    def test_stats_round_trip(self, token):
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=4, window=16))
        items = TokenWorkloadGenerator(N, seed=2).generate(64)
        _, _, stats = engine.run_workload(items)
        snapshot = stats.as_dict()
        assert snapshot["ops_executed"] == 64
        assert snapshot["waves"] == stats.waves == len(stats.rounds)
        assert (
            snapshot["wave_ops"]
            + snapshot["barrier_ops"]
            + snapshot["escalated_ops"]
            == 64
        )
        assert snapshot["virtual_time"] == pytest.approx(engine.clock)
        assert 0.0 <= snapshot["escalation_rate"] <= 1.0

    def test_step_returns_none_when_drained(self, token):
        engine = PipelinedExecutor(token)
        assert engine.step() is None

    def test_rejects_bad_config(self):
        with pytest.raises(EngineError):
            EngineConfig(num_lanes=0)
        with pytest.raises(EngineError):
            EngineConfig(window=0)

    def test_run_workload_on_reused_engine_scopes_responses(self, token):
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=2, window=8))
        first = TokenWorkloadGenerator(N, seed=1).generate(10)
        second = TokenWorkloadGenerator(N, seed=2).generate(10)
        _, r1, _ = engine.run_workload(first)
        _, r2, _ = engine.run_workload(second)
        assert len(r1) == 10 and len(r2) == 10
        assert engine.mempool.submitted == 20

    def test_responses_in_order(self, token):
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=4, window=8))
        engine.submit(1, op("balanceOf", 0))
        engine.submit(0, op("transfer", 2, 3))
        engine.submit(2, op("balanceOf", 2))
        engine.run()
        responses = engine.responses_in_order()
        assert responses == [10 * N, True, 3]
