"""TeamLane pool: independent k-consensus instances on one clock."""

from __future__ import annotations

import math

import pytest

from repro.engine.mempool import PendingOp
from repro.errors import NetworkError
from repro.net import TeamLanePool
from repro.obs import TraceRecorder, lane_churn
from repro.spec.operation import op


def batch(start: int, count: int, pid: int = 0) -> list[PendingOp]:
    return [
        PendingOp(start + i, pid, op("transfer", 1, 1)) for i in range(count)
    ]


def quadratic_bill(ops: int, k: int, max_batch: int = 64) -> int:
    """The three-phase bill for one lane of ``k`` replicas (mirrors
    ``tests/engine/test_escalation.py``'s closed form)."""
    batches = 1 if ops == 1 else 1 + math.ceil((ops - 1) / max_batch)
    return ops + batches * (k + 2 * k * k)


class TestTeamLane:
    def test_single_lane_orders_in_submission_order(self):
        pool = TeamLanePool(seed=3)
        ops = batch(0, 5)
        round_result = pool.order([(frozenset({1, 2, 3}), ops)])
        assert len(round_result.orders) == 1
        assert list(round_result.orders[0].ordered) == ops
        assert round_result.orders[0].team == frozenset({1, 2, 3})
        assert round_result.makespan > 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_message_bill_is_quadratic_in_team_size(self, k):
        pool = TeamLanePool(seed=5)
        ops = batch(0, 6)
        round_result = pool.order([(frozenset(range(k)), ops)])
        assert round_result.messages == quadratic_bill(6, k)

    def test_lane_reuse_per_team(self):
        pool = TeamLanePool(seed=1)
        lane = pool.lane({5, 9})
        assert pool.lane(frozenset({9, 5})) is lane
        assert pool.lane({5, 9, 11}) is not lane
        assert pool.lanes_created == 2

    def test_empty_round_is_free(self):
        pool = TeamLanePool(seed=0)
        round_result = pool.order([])
        assert round_result.orders == ()
        assert round_result.makespan == 0.0
        assert round_result.messages == 0

    def test_empty_team_rejected(self):
        pool = TeamLanePool(seed=0)
        with pytest.raises(NetworkError):
            pool.lane(frozenset())


class TestConcurrency:
    def test_disjoint_teams_run_concurrently(self):
        """Two teams ordered together cost (about) the slower team, not
        the sum — the makespan argument for many independent instances."""
        solo_costs = []
        for seed in (11, 12):
            pool = TeamLanePool(seed=seed)
            solo_costs.append(
                pool.order([(frozenset({0, 1, 2}), batch(0, 4))]).makespan
            )
        together = TeamLanePool(seed=11)
        round_result = together.order(
            [
                (frozenset({0, 1, 2}), batch(0, 4)),
                (frozenset({3, 4, 5}), batch(10, 4)),
            ]
        )
        assert round_result.teams == 2
        assert round_result.makespan < sum(solo_costs)

    def test_per_batch_orders_stay_aligned(self):
        pool = TeamLanePool(seed=2)
        first, second = batch(0, 3), batch(100, 2)
        round_result = pool.order(
            [(frozenset({0, 1}), first), (frozenset({7, 8, 9}), second)]
        )
        assert list(round_result.orders[0].ordered) == first
        assert list(round_result.orders[1].ordered) == second

    def test_shared_team_batches_serialize_on_one_lane(self):
        """Two components naming the same team share a lane: both orders
        are preserved and the lane's bill is charged exactly once."""
        pool = TeamLanePool(seed=4)
        first, second = batch(0, 2), batch(50, 3)
        round_result = pool.order(
            [(frozenset({0, 1}), first), (frozenset({1, 0}), second)]
        )
        assert pool.lanes_created == 1
        assert round_result.teams == 1  # one lane, even with two batches
        assert list(round_result.orders[0].ordered) == first
        assert list(round_result.orders[1].ordered) == second
        assert round_result.orders[1].messages == 0  # charged on the first
        assert round_result.messages == round_result.orders[0].messages

    def test_clock_is_cumulative_across_rounds(self):
        pool = TeamLanePool(seed=6)
        pool.order([(frozenset({0, 1}), batch(0, 2))])
        t1 = pool.clock
        pool.order([(frozenset({0, 1}), batch(10, 2))])
        assert pool.clock > t1
        assert pool.rounds == 2


class TestIdleLaneGC:
    """Regression: a long run over shifting approval patterns must not
    accumulate one live replica group per distinct team it ever saw."""

    def test_idle_lane_collected_after_ttl(self):
        pool = TeamLanePool(seed=7, idle_ttl=2)
        pool.order([(frozenset({0, 1}), batch(0, 2))])
        # Two rounds on a different team: {0, 1} goes idle past the TTL.
        pool.order([(frozenset({2, 3}), batch(10, 2))])
        assert pool.live_lanes == 2
        pool.order([(frozenset({2, 3}), batch(20, 2))])
        assert pool.live_lanes == 1
        assert pool.lanes_gcd == 1
        assert pool.lanes_created == 2  # cumulative, GC does not decrement

    def test_shifting_teams_bound_live_lanes(self):
        """Distinct team per round: without GC the pool holds one lane per
        round ever seen; with a TTL the live set stays bounded by it."""
        pool = TeamLanePool(seed=8, idle_ttl=3)
        for i in range(12):
            pool.order([(frozenset({2 * i, 2 * i + 1}), batch(10 * i, 2))])
        assert pool.lanes_created == 12
        assert pool.live_lanes <= 3
        assert pool.lanes_gcd == 12 - pool.live_lanes

    def test_collected_lane_is_reprovisioned_and_reordered_correctly(self):
        pool = TeamLanePool(seed=9, idle_ttl=1)
        team = frozenset({4, 5})
        pool.order([(team, batch(0, 3))])
        pool.order([(frozenset({6, 7}), batch(10, 2))])  # {4,5} collected
        assert pool.live_lanes == 1
        ops = batch(20, 4)
        round_result = pool.order([(team, ops)])
        assert list(round_result.orders[0].ordered) == ops
        assert pool.lanes_created == 3

    def test_reuse_within_ttl_keeps_the_lane(self):
        pool = TeamLanePool(seed=10, idle_ttl=2)
        team = frozenset({0, 1})
        lane = pool.lane(team)
        for i in range(6):
            pool.order([(team, batch(10 * i, 1))])
        assert pool.lane(team) is lane
        assert pool.lanes_gcd == 0

    def test_ttl_validation(self):
        with pytest.raises(NetworkError):
            TeamLanePool(idle_ttl=0)

    def test_default_keeps_lanes_forever(self):
        pool = TeamLanePool(seed=11)
        for i in range(8):
            pool.order([(frozenset({2 * i, 2 * i + 1}), batch(10 * i, 1))])
        assert pool.live_lanes == 8
        assert pool.lanes_gcd == 0

    def test_the_sync_layer_exposes_lane_ttl(self):
        from repro.sync import TieredEscalator

        sync = TieredEscalator(team_threshold=3, lane_ttl=4, seed=1)
        assert sync.pool.idle_ttl == 4


class TestTopLane:
    """Tier ∞ is the pool's top lane: a ``None`` team's batch, on the
    pool's clock, outside the team-lane bookkeeping."""

    def test_top_lane_reproduces_the_pinned_lane_arithmetic(self):
        """``test_lane_arithmetic_is_pinned``'s batches (n = 4, seed 0)
        give the same makespan and bill through ``pool.order``."""
        pool = TeamLanePool(seed=0)
        start = 0
        for count in (1, 5, 70, 3):
            ops = [
                PendingOp(start + i, i % 3, op("transfer", 1, 1))
                for i in range(count)
            ]
            result = pool.order([(None, ops)])
            start += count
            assert list(result.orders[0].ordered) == ops
            assert result.teams == 0
        assert result.makespan == 5.9505912842994455
        assert result.messages == 75
        assert result.orders[0].team == frozenset(range(4))

    def test_gc_never_collects_the_top_lane(self):
        pool = TeamLanePool(seed=2, idle_ttl=1)
        top = pool.top
        pool.order([(None, batch(0, 3))])
        slots = top.slots
        for i in range(4):  # team-only rounds: the top lane idles
            pool.order([(frozenset({2 * i, 2 * i + 1}), batch(10 * i, 1))])
        assert pool.lanes_gcd == 3 and pool.top is top
        ops = batch(100, 2)
        result = pool.order([(None, ops)])
        assert list(result.orders[0].ordered) == ops
        # One lane for the pool's life: sequence numbers go on.
        assert top.slots > slots

    def test_bookkeeping_excludes_the_top_lane(self):
        tracer = TraceRecorder()
        pool = TeamLanePool(seed=3, idle_ttl=1)
        pool.tracer = tracer
        pool.order([(None, batch(0, 2))])
        assert (pool.lanes_created, pool.live_lanes) == (0, 0)
        assert lane_churn(tracer) is None
        result = pool.order([(None, batch(10, 2)), ({0, 1}, batch(20, 2))])
        assert result.teams == 1
        assert (pool.lanes_created, pool.live_lanes) == (1, 1)
        churn = lane_churn(tracer)
        assert (churn.spinups, churn.peak_live, churn.teams) == (1, 1, ("0-1",))
        # Its batches are traced on a track of their own.
        assert [span.track for span in tracer.spans] == [
            "teamlanes.global",
            "teamlanes.global",
            "teamlanes.k2 [0-1]",
        ]

    def test_a_team_of_every_replica_gets_its_own_lane(self):
        pool = TeamLanePool(seed=4)
        everyone = frozenset(range(4))
        first, second = batch(0, 2), batch(10, 3)
        result = pool.order([(None, first), (everyone, second)])
        assert pool.lane(everyone) is not pool.top
        assert result.teams == 1
        assert list(result.orders[0].ordered) == first
        assert list(result.orders[1].ordered) == second
        # Two lanes, two bills: neither batch rode the other's lane.
        assert result.orders[0].messages == quadratic_bill(2, 4)
        assert result.orders[1].messages == quadratic_bill(3, 4)
