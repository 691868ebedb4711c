"""TeamLane pool: independent k-consensus instances on one clock."""

from __future__ import annotations

import math

import pytest

from repro.cluster import ClusterConfig, TokenCluster
from repro.engine.mempool import PendingOp
from repro.errors import NetworkError
from repro.net import TeamLanePool
from repro.objects.erc20 import ERC20TokenType
from repro.obs import TraceRecorder, utilization_report
from repro.spec.operation import op
from repro.workloads import SPENDER_HEAVY_MIX, TokenWorkloadGenerator
from tests.sync.sync_tap import tap_sync_results


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


class TestLaneLifetime:
    """A team lane lives as long as its pool: one lane per distinct team
    the pool ever ordered, reused however long it idles."""

    def test_an_idle_lane_is_reused(self):
        pool = TeamLanePool(seed=10)
        team = frozenset({0, 1})
        lane = pool.lane(team)
        pool.order([(team, batch(0, 1))])
        for i in range(1, 40):  # other teams only: {0, 1} idles
            pool.order([(frozenset({2 * i, 2 * i + 1}), batch(10 * i, 1))])
        assert pool.lane(team) is lane
        ops = batch(500, 4)
        round_result = pool.order([(team, ops)])
        assert list(round_result.orders[0].ordered) == ops
        assert pool.lanes_created == 40

    def test_one_lane_per_distinct_team(self):
        pool = TeamLanePool(seed=11)
        for i in range(8):
            pool.order([(frozenset({2 * i, 2 * i + 1}), batch(10 * i, 1))])
            pool.order([(frozenset({2 * i + 1, 2 * i}), batch(10 * i, 1))])
        assert pool.lanes_created == 8

    def test_the_pool_takes_no_idle_ttl(self):
        with pytest.raises(TypeError):
            TeamLanePool(idle_ttl=1)

    def test_a_cluster_run_builds_one_lane_per_team_it_orders(self):
        """The wall benchmark's ``cluster_spender`` shape at 3 072 ops,
        seed 7: 80 sync rounds, long enough that an idle-lane GC after
        32 rounds collected five lanes here and built one team's lane
        twice.  Every lane now lives as long as the pool, and the run's
        makespan and sync bill are the numbers the GC-era run produced:
        no output ever depended on collecting lanes."""
        accounts = 256
        token = ERC20TokenType(accounts, total_supply=100 * accounts)
        items = TokenWorkloadGenerator(
            accounts,
            seed=7,
            mix=SPENDER_HEAVY_MIX,
            zipf_s=1.0,
            spender_pool=4,
        ).generate(3072)
        cluster = TokenCluster(
            token,
            ClusterConfig(num_nodes=4, lanes_per_node=4, window=32, seed=7),
        )
        results = tap_sync_results(cluster.router.sync)
        _, _, stats = cluster.run_workload(items)
        pool = cluster.router.sync.pool
        teams = {
            order.team
            for result in results
            for order in result.components
            if order.team is not None
        }
        assert pool.rounds == 80
        assert pool.lanes_created == len(teams) == 8
        assert stats.makespan == 776.6338716322845
        assert stats.escalation_messages == 3697


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

    def test_the_top_lane_outlives_team_only_rounds(self):
        pool = TeamLanePool(seed=2)
        top = pool.top
        pool.order([(None, batch(0, 3))])
        slots = top.slots
        for i in range(4):  # team-only rounds: the top lane idles
            pool.order([(frozenset({2 * i, 2 * i + 1}), batch(10 * i, 1))])
        assert pool.lanes_created == 4 and pool.top is top
        ops = batch(100, 2)
        result = pool.order([(None, ops)])
        assert list(result.orders[0].ordered) == ops
        # One lane for the pool's life: sequence numbers go on.
        assert top.slots > slots

    def test_bookkeeping_excludes_the_top_lane(self):
        tracer = TraceRecorder()
        pool = TeamLanePool(seed=3)
        pool.tracer = tracer
        pool.order([(None, batch(0, 2))])
        assert pool.lanes_created == utilization_report(tracer).lanes == 0
        result = pool.order([(None, batch(10, 2)), ({0, 1}, batch(20, 2))])
        assert result.teams == 1
        assert pool.lanes_created == utilization_report(tracer).lanes == 1
        [spinup] = tracer.instants
        assert (spinup.track, spinup.name) == ("teamlanes.pool", "lane spin-up")
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
