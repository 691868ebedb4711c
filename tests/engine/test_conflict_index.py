"""Location-scanned conflict detection on named windows, and the engine's
one state lineage.

``plan_window`` finds a window's non-commuting pairs in one ascending
scan, each op looking up its earlier partners by the cells it touches
(:func:`~repro.objects.footprint.window_preds`); the reference
(:func:`tests.reference.plan`) classifies all ``n(n-1)/2`` pairs.
``tests/engine/test_window_plan.py`` holds the plan to it on random
windows of every object type; the windows here are the shapes the exactness argument and
the scan's bookkeeping turn on, each held to the same reference first.
"""

from __future__ import annotations

import pytest

from repro.analysis.commutativity import PairKind
from repro.config import EngineConfig
from repro.engine import ComponentDAG, PipelinedExecutor, plan_window
from repro.engine.classifier import OpClassifier
from repro.engine.mempool import PendingOp
from repro.objects.erc20 import ERC20TokenType
from repro.objects.footprint import EMPTY_FOOTPRINT
from repro.spec.operation import op
from repro.sync.planner import SyncPlanner
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadMix,
)
from tests import reference
from tests.engine.test_classifier import N
from tests.engine.test_window_plan import (
    HoleyERC20,
    assert_plan_is_the_reference,
)


def _window(invocations) -> list[PendingOp]:
    return [
        PendingOp(seq, pid, operation)
        for seq, (pid, operation) in enumerate(invocations)
    ]


def _preds(invocations, token=None):
    """The plan's window-aligned predecessors, as lists."""
    token = token or ERC20TokenType(8, total_supply=80)
    plan = plan_window(OpClassifier(token), _window(invocations))
    return [list(below) for below in plan.preds]


class TestNamedWindows:
    """The shapes the exactness argument turns on."""

    def _edges(self, invocations, token=None):
        """The reference's edges, the plan held to them first."""
        token = token or ERC20TokenType(8, total_supply=80)
        window = _window(invocations)
        assert_plan_is_the_reference(token, window)
        return reference.plan(token, window).edges

    def test_one_hot_balance_is_all_conflict(self):
        """Every op guarded on one balance: all n(n-1)/2 pairs, in order."""
        n = 12
        edges = self._edges(
            [
                (1 + i % 3, op("transferFrom", 0, 4 + i % 4, 1))
                for i in range(n)
            ]
        )
        assert list(edges) == [
            (i, j) for i in range(n) for j in range(i + 1, n)
        ]
        assert set(edges.values()) == {PairKind.CONFLICT}

    def test_pair_sharing_two_locations_is_one_edge(self):
        edges = self._edges(
            [(0, op("transfer", 1, 2)), (1, op("transfer", 0, 2))]
        )
        assert edges == {(0, 1): PairKind.CONFLICT}

    def test_read_read_and_credit_credit_share_without_an_edge(self):
        edges = self._edges(
            [
                (0, op("balanceOf", 5)),
                (1, op("balanceOf", 5)),
                (2, op("transfer", 7, 1)),  # credits 7
                (3, op("transfer", 7, 1)),  # credits 7
            ]
        )
        assert edges == {}

    def test_an_all_read_window_has_no_partner(self):
        """Nothing is written, so no op has a partner: no edge, and no
        predecessor at all."""
        invocations = [
            (0, op("balanceOf", 1)),
            (1, op("balanceOf", 1)),
            (2, op("allowance", 1, 2)),
            (3, op("totalSupply")),
            (1, op("allowance", 1, 2)),
        ]
        assert self._edges(invocations) == {}
        assert _preds(invocations) == [[]] * 5

    def test_a_written_cell_read_by_three_ops(self):
        """One transfer debits β(1) and three ops read it: exactly the
        three READ_ONLY edges, each on the later op of its pair."""
        invocations = [
            (0, op("balanceOf", 1)),
            (2, op("balanceOf", 1)),
            (1, op("transfer", 3, 2)),
            (5, op("balanceOf", 1)),
            (6, op("balanceOf", 4)),
        ]
        read_only = PairKind.READ_ONLY
        assert self._edges(invocations) == {
            (0, 2): read_only,
            (1, 2): read_only,
            (2, 3): read_only,
        }
        assert _preds(invocations) == [[], [], [0, 1], [2], []]

    def test_reader_of_a_written_cell_is_read_only(self):
        edges = self._edges(
            [(0, op("balanceOf", 1)), (2, op("transfer", 1, 1))]
        )
        assert edges == {(0, 1): PairKind.READ_ONLY}

    def test_empty_footprint_touches_nothing(self):
        token = ERC20TokenType(8, total_supply=80)
        noop = op("transfer", 1, 0)
        assert token.footprint(0, noop) == EMPTY_FOOTPRINT
        edges = self._edges(
            [(0, noop), (0, op("transfer", 1, 2)), (0, noop)], token
        )
        assert edges == {}

    def test_unknown_footprint_is_adjacent_to_the_whole_window(self):
        hole = (3, op("totalSupply"))
        edges = self._edges(
            [(0, op("balanceOf", 1)), hole, (2, op("balanceOf", 2))],
            HoleyERC20({hole}),
        )
        assert edges == {
            (0, 1): PairKind.CONFLICT,
            (1, 2): PairKind.CONFLICT,
        }

    def test_empty_and_single_op_windows(self):
        assert self._edges([]) == {}
        assert self._edges([(0, op("transfer", 1, 2))]) == {}

    def test_examined_pairs_are_the_candidates_only(self):
        """``stats.pairs`` counts what the scan visited — the edges — not
        the window's n(n-1)/2 pairs."""
        token = ERC20TokenType(8, total_supply=80)
        window = _window(
            [(a, op("transfer", (a + 1) % 8, 1)) for a in range(0, 8, 2)]
            + [(1, op("transferFrom", 0, 3, 1)), (5, op("balanceOf", 0))]
        )
        classifier = OpClassifier(token)
        plan_window(classifier, window)
        edges = reference.plan(token, window).edges
        assert classifier.stats.pairs == len(edges) == 3
        assert classifier.stats.by_kind == {"conflict": 1, "read-only": 2}


class TestTheScan:
    """The cases the location scan's bookkeeping turns on: an op looks its
    partners up before it registers itself, takes each once and in
    ascending order, and an unknown footprint pairs with everything."""

    def test_a_guarded_decrement_is_not_its_own_partner(self):
        """A transfer observes and adds its source balance: a lone one has
        no predecessor, and a later reader of that cell pairs with it
        once."""
        token = ERC20TokenType(8, total_supply=80)
        spend = (1, op("transfer", 2, 1))
        assert _preds([spend]) == [[]]
        window = [spend, (3, op("balanceOf", 1)), spend]
        assert _preds(window) == [[], [0], [0, 1]]
        assert_plan_is_the_reference(token, _window(window))

    def test_two_shared_cells_make_one_edge(self):
        """Opposite transfers share both balances, each cell reaching the
        earlier op through a different register: one predecessor, and one
        edge in the counters."""
        window = _window([(0, op("transfer", 1, 2)), (1, op("transfer", 0, 2))])
        classifier = OpClassifier(ERC20TokenType(8, total_supply=80))
        plan = plan_window(classifier, window)
        assert [list(below) for below in plan.preds] == [[], [0]]
        assert classifier.stats.pairs == 1
        assert classifier.stats.by_kind == {"conflict": 1}

    def test_a_set_cell_pairs_with_every_earlier_access(self):
        """approve overwrites α(0, 3) after a reader, a blind adder and a
        setter of it: it pairs with all three, and each of those with
        the earlier ones it does not commute with."""
        token = ERC20TokenType(8, total_supply=80, with_extensions=True)
        window = [
            (5, op("allowance", 0, 3)),  # observes α(0, 3)
            (0, op("increaseAllowance", 3, 1)),  # adds α(0, 3)
            (0, op("approve", 3, 4)),  # sets α(0, 3)
            (0, op("approve", 3, 5)),
        ]
        assert _preds(window, token) == [[], [0], [0, 1], [0, 1, 2]]
        assert_plan_is_the_reference(token, _window(window))

    @pytest.mark.parametrize("pids", [(0, 0, 0, 0, 0), (0, 1, 0, 1, 0)])
    def test_unknown_footprints_first_middle_and_last(self, pids):
        """Holes at indices 0, 2 and 4 pair with every other op; the known
        ops between them reach the earlier holes.  Same-process conflicts
        need no consensus; with two processes every op is contended."""
        hole = op("totalSupply")
        invocations = [
            (pids[0], hole),
            (pids[1], op("balanceOf", 1)),
            (pids[2], hole),
            (pids[3], op("balanceOf", 2)),
            (pids[4], hole),
        ]
        token = HoleyERC20({(pid, hole) for pid in pids})
        window = _window(invocations)
        classifier = OpClassifier(token)
        plan = plan_window(classifier, window)
        assert [list(below) for below in plan.preds] == [
            [],
            [0],
            [0, 1],
            [0, 2],
            [0, 1, 2, 3],
        ]
        assert classifier.stats.fallback_pairs == 9
        expected = [] if len(set(pids)) == 1 else [[0, 1, 2, 3, 4]]
        assert plan.contended_groups == expected
        assert_plan_is_the_reference(token, window)

    def test_preds_ascend_when_a_later_partner_comes_first(self):
        """Op 4 observes β(1), which op 3 credited, and credits β(2), which
        op 1 read: the observed cell is looked up first and yields the
        later partner, yet the predecessors come out ascending."""
        window = [
            (5, op("balanceOf", 5)),
            (7, op("balanceOf", 2)),
            (6, op("balanceOf", 6)),
            (4, op("transfer", 1, 1)),  # credits β(1)
            (1, op("transfer", 2, 1)),  # observes β(1), credits β(2)
        ]
        assert _preds(window) == [[], [], [], [], [1, 3]]
        assert_plan_is_the_reference(
            ERC20TokenType(8, total_supply=80), _window(window)
        )


#: Reads dominate; the hot accounts' transferFroms and approves still make
#: contended windows.
READ_MOSTLY_MIX = WorkloadMix(
    transfer=0.1,
    transfer_from=0.15,
    approve=0.1,
    balance_of=0.45,
    allowance=0.15,
    total_supply=0.05,
)


class TestOneStateLineage:
    """The engine folds every op into one batch, once, in submission order,
    when its window is planned; team sizing reads that batch's snapshot."""

    ITEMS = TokenWorkloadGenerator(
        16,
        seed=13,
        mix=READ_MOSTLY_MIX,
        hotspot_fraction=0.5,
        hotspot_accounts=2,
    ).generate(256)
    CONFIG = EngineConfig(num_lanes=4, window=32, team_threshold=4)

    @staticmethod
    def token():
        return ERC20TokenType(16, total_supply=320)

    def test_contended_team_sized_traffic_applies_each_op_once(self):
        """Contended windows that size teams read the prefix state, and
        still ``apply`` runs exactly once per op, in submission order."""
        token = self.token()
        calls = []
        apply = token.apply

        def counting_apply(state, pid, operation):
            calls.append(operation)
            return apply(state, pid, operation)

        token.apply = counting_apply
        engine = PipelinedExecutor(token, self.CONFIG)
        state, responses, stats = engine.run_workload(self.ITEMS)
        assert stats.team_ops > 0 and stats.escalated_ops > 0
        assert calls == [item.operation for item in self.ITEMS]
        assert (state, responses) == self.token().run(
            [(item.pid, item.operation) for item in self.ITEMS]
        )

    def test_teams_are_sized_at_the_serial_prefix_state(self):
        """Every round's ``team_sizes`` equal those the planner sizes from
        the spec's state after every op before the round's window — and
        not from the initial state, so the prefix is what is read."""
        engine = PipelinedExecutor(self.token(), self.CONFIG)
        rounds = []
        order_round = engine.sync.order_round

        def watched(plan, state, object_type):
            result = order_round(plan, state, object_type)
            rounds.append((plan, result))
            return result

        engine.sync.order_round = watched
        engine.run_workload(self.ITEMS)

        reference = self.token()
        planner = SyncPlanner(self.CONFIG.team_threshold)

        def team_sizes(plan, state):
            grouped = planner.assign_groups(
                plan.contended_groups,
                plan.ops,
                plan.footprints,
                state=state,
                object_type=reference,
            )
            return tuple(
                len(a.team) for group in grouped for a in group if a.is_team
            )

        initial, stale = reference.initial_state(), 0
        for plan, result in rounds:
            prefix, _ = reference.run(
                (item.pid, item.operation)
                for item in self.ITEMS[: plan.ops[0].seq]
            )
            assert result.team_sizes == team_sizes(plan, prefix)
            stale += result.team_sizes != team_sizes(plan, initial)
        assert len(rounds) > 1 and any(r.team_sizes for _, r in rounds)
        assert stale > 0

    def test_reused_engine_sizes_teams_from_the_committed_state(self):
        """A second workload on the same executor sees the first one's
        effects in its spender bounds (the prefix state restarts from the
        committed state), exactly like a barrier engine."""
        first = TokenWorkloadGenerator(
            16, seed=2, mix=APPROVAL_HEAVY_MIX
        ).generate(96)
        second = TokenWorkloadGenerator(
            16, seed=3, mix=SPENDER_HEAVY_MIX
        ).generate(96)
        runs = []
        for depth in (1, 2):
            engine = PipelinedExecutor(
                ERC20TokenType(16, total_supply=320),
                EngineConfig(num_lanes=4, window=32, pipeline_depth=depth),
            )
            engine.run_workload(first)
            state, responses, stats = engine.run_workload(second)
            runs.append(
                (state, responses, stats.team_ops, stats.escalation_messages)
            )
        assert runs[0] == runs[1]
        assert runs[0][2] > 0


class TestTheDagRecord:
    def test_the_dag_is_frozen_and_holds_tuples(self):
        token = ERC20TokenType(N, total_supply=20)
        plan = plan_window(
            OpClassifier(token),
            _window([(0, op("transfer", 1, 2)), (1, op("transfer", 0, 2))]),
        )
        dag = plan.chain_dag(0)
        # The record is frozen and its fields are tuples: a caller can
        # neither rebind nor mutate what the next reader gets.
        with pytest.raises(AttributeError):
            dag.preds = ((), ())
        assert isinstance(dag.preds, tuple)
        assert all(isinstance(below, tuple) for below in dag.preds)
        assert isinstance(dag.priorities, tuple)
        assert dag == ComponentDAG(((), (0,)), (2, 1), 2, 1)
