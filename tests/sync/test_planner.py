"""SyncPlanner tier selection and the TieredEscalator's accounting."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.engine import OpClassifier, plan_window
from repro.engine.mempool import PendingOp
from repro.errors import EngineError
from repro.net import TeamLane
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.objects.erc721 import ERC721TokenType
from repro.objects.footprint import bal, footprint
from repro.spec.operation import op
from repro.sync import (
    TIER_GLOBAL,
    SyncPlanner,
    TieredEscalator,
    component_team,
)


def footprints(classifier, ops):
    return [classifier.object_type.footprint(p.pid, p.operation) for p in ops]


def whole(ops):
    """``ops`` as one contended group (indices into ``ops``)."""
    return [list(range(len(ops)))]


def plan_of(classifier, ops, groups=None):
    """The plan of ``ops`` as one window — or, given ``groups``, with its
    contended groups cut by hand: shapes a window's graph would merge into
    one component, or would not find contended."""
    plan = plan_window(classifier, ops)
    return plan if groups is None else replace(plan, contended_groups=groups)


def erc20_fixture():
    token = ERC20TokenType(
        8,
        initial_state=TokenState.create(
            [10] * 8, allowances={(0, 1): 5, (0, 2): 3}
        ),
    )
    return token, OpClassifier(token), token.initial_state()


class TestComponentTeam:
    def test_erc20_team_is_spenders_plus_participants(self):
        token, classifier, state = erc20_fixture()
        # Two enabled spenders of account 0 racing a transfer by its owner.
        ops = [
            PendingOp(0, 1, op("transferFrom", 0, 3, 2)),
            PendingOp(1, 0, op("transfer", 4, 2)),
        ]
        team = component_team(ops, footprints(classifier, ops), state, token)
        # Spender bound of account 0 = {0 (owner), 1, 2 (allowances)};
        # participants {0, 1} are already inside.
        assert team == frozenset({0, 1, 2})

    def test_asset_transfer_uses_static_owner_map(self):
        owner_map = [{0, 1, 2}, {3}, {3, 4}]
        asset = AssetTransferType(
            [10, 10, 10], owner_map=owner_map, num_processes=5
        )
        classifier = OpClassifier(asset)
        ops = [
            PendingOp(0, 0, op("transfer", 0, 1, 2)),
            PendingOp(1, 2, op("transfer", 0, 2, 1)),
        ]
        team = component_team(
            ops, footprints(classifier, ops), asset.initial_state(), asset
        )
        assert team == frozenset({0, 1, 2})

    def test_unboundable_object_returns_none(self):
        nft = ERC721TokenType(4, initial_owners=[0, 1, 2, 3])
        classifier = OpClassifier(nft)
        ops = [
            PendingOp(0, 0, op("transferFrom", 0, 1, 0)),
            PendingOp(1, 2, op("transferFrom", 0, 2, 0)),
        ]
        team = component_team(
            ops, footprints(classifier, ops), nft.initial_state(), nft
        )
        assert team is None

    def test_no_state_returns_none(self):
        token, classifier, _ = erc20_fixture()
        ops = [
            PendingOp(0, 1, op("transferFrom", 0, 3, 2)),
            PendingOp(1, 0, op("transfer", 4, 2)),
        ]
        fps = footprints(classifier, ops)
        assert component_team(ops, fps, None, token) is None


class TestSyncPlanner:
    def test_threshold_zero_is_always_global(self):
        token, classifier, state = erc20_fixture()
        ops = [
            PendingOp(0, 1, op("transferFrom", 0, 3, 2)),
            PendingOp(1, 0, op("transfer", 4, 2)),
        ]
        [assignment] = SyncPlanner(0).assign(
            whole(ops), ops, footprints(classifier, ops), state, token
        )
        assert assignment.tier == TIER_GLOBAL
        assert assignment.team is None

    def test_small_team_gets_a_lane_large_goes_global(self):
        token, classifier, state = erc20_fixture()
        ops = [
            PendingOp(0, 1, op("transferFrom", 0, 3, 2)),
            PendingOp(1, 0, op("transfer", 4, 2)),
        ]
        fps = footprints(classifier, ops)
        [small] = SyncPlanner(3).assign(whole(ops), ops, fps, state, token)
        assert small.tier == 3
        assert small.team == frozenset({0, 1, 2})
        [over] = SyncPlanner(2).assign(whole(ops), ops, fps, state, token)
        assert over.tier == TIER_GLOBAL

    def test_decide_sizes_precomputed_teams(self):
        planner = SyncPlanner(4)
        assert planner.decide(frozenset({1, 2})).tier == 2
        assert planner.decide(frozenset(range(9))).tier == TIER_GLOBAL
        assert planner.decide(None).tier == TIER_GLOBAL

    def test_empty_component_rejected(self):
        token, _, state = erc20_fixture()
        with pytest.raises(EngineError):
            SyncPlanner(2).assign([[]], [], [], state, token)

    def test_negative_threshold_rejected(self):
        with pytest.raises(EngineError):
            SyncPlanner(-1)


def two_account_component():
    """One component interleaving two disjoint contention sets: spenders
    of account 0 (seqs 0, 2) and account 5's own transfers (seqs 1, 3)."""
    return [
        PendingOp(0, 1, op("transferFrom", 0, 3, 2)),
        PendingOp(1, 5, op("transfer", 6, 2)),
        PendingOp(2, 2, op("transferFrom", 0, 4, 1)),
        PendingOp(3, 5, op("transfer", 7, 1)),
    ]


class TestSyncGroups:
    def test_disjoint_accounts_split_in_submission_order(self):
        _, classifier, _ = erc20_fixture()
        ops = two_account_component()
        planner = SyncPlanner(4)
        groups = planner.split_groups(range(4), footprints(classifier, ops))
        # Groups come out in submission order of their first op, members
        # in submission order; flattening recovers the component exactly.
        assert groups == [[0, 2], [1, 3]]

    def test_shared_account_bridges_groups_transitively(self):
        def contend(*accounts):
            cells = [bal(a) for a in accounts]
            return footprint(observes=cells, adds=cells)

        # Hand-crafted footprints: a contention shape the token types
        # cannot express directly.
        table = [contend(0), contend(5), contend(0, 5)]
        planner = SyncPlanner(4)
        assert planner.split_groups(range(3), table) == [[0, 1, 2]]

    def test_unknown_footprint_collapses_to_one_group(self):
        table = [
            footprint(observes=[bal(0)], adds=[bal(0)]),
            None,
            footprint(observes=[bal(5)], adds=[bal(5)]),
        ]
        planner = SyncPlanner(4)
        assert planner.split_groups(range(3), table) == [[0, 1, 2]]

    def test_split_groups_fit_lanes_the_union_bound_blows(self):
        token, classifier, state = erc20_fixture()
        ops = two_account_component()
        fps = footprints(classifier, ops)
        planner = SyncPlanner(3)
        # Sized whole, the union bound {0,1,2} ∪ {5} is 4 > 3: the
        # component would blow the threshold and go global.
        [unsplit] = planner.assign(whole(ops), ops, fps, state, token)
        assert unsplit.tier == TIER_GLOBAL
        [[spenders, owner]] = planner.assign_groups(
            whole(ops), ops, fps, state, token
        )
        # Sized per group, both fit: account 0's spender bound {0, 1, 2},
        # account 5's own traffic just {5}.
        assert spenders.team == frozenset({0, 1, 2})
        assert spenders.tier == 3
        assert owner.team == frozenset({5})
        assert owner.tier == 1


class TestTieredEscalator:
    def test_threshold_zero_matches_the_global_lane_exactly(self):
        """Bit-compatibility: the tiered path with no team lanes produces
        the same committed order, time, and bill as the raw lane."""
        token, classifier, state = erc20_fixture()
        ops = [
            PendingOp(0, 1, op("transferFrom", 0, 3, 2)),
            PendingOp(1, 2, op("transferFrom", 0, 4, 1)),
            PendingOp(2, 0, op("transfer", 5, 2)),
        ]
        raw = TeamLane(range(4), seed=9).order(list(ops))
        sync = TieredEscalator(4, team_threshold=0, seed=9)
        plan = plan_of(classifier, ops)
        assert plan.contended_groups == whole(ops)
        result = sync.order_round(plan, state, token)
        assert (
            tuple(o for c in result.components for o in c.ordered)
            == raw.orders[0].ordered
        )
        assert result.messages == raw.messages
        assert result.virtual_time == raw.makespan
        assert result.team_ops == 0 and result.global_ops == len(ops)

    def test_team_tier_bills_k_squared_not_global(self):
        token, classifier, state = erc20_fixture()
        ops = [
            PendingOp(0, 1, op("transferFrom", 0, 3, 2)),
            PendingOp(1, 2, op("transferFrom", 0, 4, 1)),
        ]
        sync = TieredEscalator(8, team_threshold=4, seed=9)
        plan = plan_of(classifier, ops)
        assert plan.contended_groups == whole(ops)
        result = sync.order_round(plan, state, token)
        assert result.team_ops == 2 and result.global_ops == 0
        assert result.global_messages == 0
        # 3-replica team, 2 ops in 2 proposal batches (the first proposes
        # alone while the second is in flight): 2 + 2·(3 + 2·9) = 44 —
        # far below the same pattern over 8 replicas (2 + 2·136 = 274).
        assert result.team_messages == 2 + 2 * (3 + 2 * 9)
        assert result.team_sizes == (3,)
        assert result.components[0].team == frozenset({0, 1, 2})

    def test_mixed_round_pays_the_slower_phase_once(self):
        nft_like = [
            PendingOp(10, 0, op("transfer", 1, 1)),
            PendingOp(11, 3, op("transferFrom", 0, 2, 1)),
        ]
        team_comp = [
            PendingOp(0, 1, op("transferFrom", 0, 3, 2)),
            PendingOp(1, 2, op("transferFrom", 0, 4, 1)),
        ]
        token, classifier, state = erc20_fixture()
        sync = TieredEscalator(team_threshold=3, seed=4)
        # Force the second component global via an oversized threshold
        # miss: its team is {0, 3} plus spenders {1, 2} = 4 > 3.  (One
        # window's graph would merge the two on account 0.)
        plan = plan_of(classifier, team_comp + nft_like, [[0, 1], [2, 3]])
        result = sync.order_round(plan, state, token)
        team, top = result.components
        assert team.tier == 3 and math.isinf(top.tier)
        # One pool round on one clock: the phase is that round's makespan
        # (the slower lane plus its trailing quorum traffic), never the
        # sum of both lanes.
        assert result.virtual_time == sync.pool.clock
        assert result.virtual_time >= max(team.completed, top.completed)
        # The Tier ∞ component completes at its own batch's last delivery
        # — what the top lane's seed gives the batch alone — not at the
        # top lane's quiescence.
        alone = TeamLane(range(4), seed=4).order(list(nft_like))
        assert top.completed == alone.orders[0].completed
        assert top.completed < alone.makespan
        assert (
            result.messages
            == result.team_messages + result.global_messages
        )
        assert result.global_messages == alone.messages

    def test_sync_groups_fold_back_per_component(self):
        token, classifier, state = erc20_fixture()
        ops = two_account_component()
        sync = TieredEscalator(team_threshold=3, seed=9)
        # Hand-cut: the graph leaves account 5's same-process pair
        # uncontended, in a component of its own.
        plan = plan_of(classifier, ops, whole(ops))
        result = sync.order_round(plan, state, token)
        # Two concurrent team lanes under the hood, but callers still zip
        # components against the result positionally: one folded order.
        [component] = result.components
        assert [o.seq for o in component.ordered] == [0, 1, 2, 3]
        assert component.tier == 3
        assert component.team == frozenset({0, 1, 2, 5})
        assert result.teams == 2
        assert result.team_sizes == (3, 1)
        assert result.team_ops == 4 and result.global_ops == 0
        # The folded completion is the slower group's lane commit (the
        # phase makespan may add that lane's trailing quorum traffic).
        assert component.completed <= result.virtual_time
