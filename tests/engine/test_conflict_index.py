"""Location-indexed conflict detection against its all-pairs oracle.

``ConflictGraph.build`` finds a window's non-commuting pairs by hashing
every footprint on its locations; ``classify_window`` classifies
all ``n(n-1)/2`` pairs.  The contract: the indexed edge dict *is* the
non-COMMUTE subset of the all-pairs dict — same keys, same kinds, same
iteration order — for every object type, known footprints or not.  Every
placement decision downstream reads that dict in order, so equality here
is what lets the all-pairs pass stand in for the index as the reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.commutativity import PairKind
from repro.config import EngineConfig
from repro.engine import ComponentDAG, ConflictGraph, PipelinedExecutor
from repro.engine.classifier import OpClassifier
from repro.engine.mempool import PendingOp
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.objects.erc1155 import ERC1155TokenType
from repro.objects.footprint import EMPTY_FOOTPRINT, conflict_candidates
from repro.spec.operation import op
from repro.sync.planner import SyncPlanner
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadMix,
)
from benchmarks.wall.scenarios import READ_MOSTLY_MIX as WALL_READ_MOSTLY
from tests.engine import graph_views as views
from tests.engine.test_classifier import (
    ACCOUNT,
    VALUE,
    N,
    erc20_invocation,
    erc721_invocation,
)


def _window(invocations) -> list[PendingOp]:
    return [
        PendingOp(seq, pid, operation)
        for seq, (pid, operation) in enumerate(invocations)
    ]


def _oracle_edges(object_type, window) -> list:
    """Non-COMMUTE entries of the all-pairs pass, in its order (a fresh
    classifier: the two passes share no memo)."""
    kinds = OpClassifier(object_type).classify_window(window)
    return [
        (pair, kind)
        for pair, kind in kinds.items()
        if kind is not PairKind.COMMUTE
    ]


def _assert_indexed_equals_all_pairs(object_type, window) -> None:
    indexed = ConflictGraph.build(OpClassifier(object_type), window).edges
    assert list(indexed.items()) == _oracle_edges(object_type, window)


class _HoleyERC20(ERC20TokenType):
    """ERC20 whose footprint is unknown (``None``) for chosen invocations."""

    def __init__(self, holes) -> None:
        super().__init__(N, total_supply=20, with_extensions=True)
        self.holes = holes

    def footprint(self, pid, operation):
        if (pid, operation) in self.holes:
            return None
        return super().footprint(pid, operation)


@st.composite
def asset_transfer_invocation(draw):
    kind = draw(st.sampled_from(["transfer", "balanceOf", "totalSupply"]))
    if kind == "transfer":
        operation = op("transfer", draw(ACCOUNT), draw(ACCOUNT), draw(VALUE))
    elif kind == "balanceOf":
        operation = op("balanceOf", draw(ACCOUNT))
    else:
        operation = op("totalSupply")
    return draw(ACCOUNT), operation


@st.composite
def erc1155_invocation(draw):
    token_type = st.integers(0, 1)
    kind = draw(
        st.sampled_from(["balanceOf", "safeTransferFrom", "setApprovalForAll"])
    )
    if kind == "balanceOf":
        operation = op(kind, draw(ACCOUNT), draw(token_type))
    elif kind == "safeTransferFrom":
        operation = op(
            kind, draw(ACCOUNT), draw(ACCOUNT), draw(token_type), draw(VALUE)
        )
    else:
        operation = op(kind, draw(ACCOUNT), draw(st.booleans()))
    return draw(ACCOUNT), operation


class TestIndexedEqualsAllPairs:
    """(a) the hypothesis property, per object type."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(erc20_invocation(), max_size=24))
    def test_erc20(self, invocations):
        _assert_indexed_equals_all_pairs(
            ERC20TokenType(N, total_supply=20, with_extensions=True),
            _window(invocations),
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(erc721_invocation(), max_size=20))
    def test_erc721(self, invocations):
        _assert_indexed_equals_all_pairs(
            ERC721TokenType(N, initial_owners=[0, 1, 2]), _window(invocations)
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(asset_transfer_invocation(), max_size=20))
    def test_k_asset_transfer(self, invocations):
        _assert_indexed_equals_all_pairs(
            AssetTransferType(
                [10] * N, owner_map=[{0, 1}] + [{a} for a in range(1, N)]
            ),
            _window(invocations),
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(erc1155_invocation(), max_size=12))
    def test_all_unknown_window(self, invocations):
        """ERC1155 inherits the ``None`` footprint: every pair is an edge."""
        window = _window(invocations)
        token = ERC1155TokenType([[5, 5]] * N)
        _assert_indexed_equals_all_pairs(token, window)
        n = len(window)
        graph = ConflictGraph.build(OpClassifier(token), window)
        assert len(graph.edges) == n * (n - 1) // 2

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.lists(erc20_invocation(), max_size=20))
    def test_mixed_known_and_unknown(self, data, invocations):
        holes = {
            invocation
            for invocation in invocations
            if data.draw(st.booleans())
        }
        _assert_indexed_equals_all_pairs(
            _HoleyERC20(holes), _window(invocations)
        )


    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 2**16), st.integers(0, 32))
    def test_read_mostly_with_unknown_footprints(self, data, seed, size):
        """The wall's ``reads_narrow`` mix: most cells are observed and
        never written, so most observers record no bucket entry, and
        unknown footprints pair with the whole window."""
        items = TokenWorkloadGenerator(
            N, seed=seed, mix=WorkloadMix(**WALL_READ_MOSTLY)
        ).generate(size)
        invocations = [(item.pid, item.operation) for item in items]
        holes = {
            invocation
            for invocation in invocations
            if data.draw(st.integers(0, 7)) == 0
        }
        _assert_indexed_equals_all_pairs(
            _HoleyERC20(holes), _window(invocations)
        )


class TestNamedWindows:
    """(b) the shapes the exactness argument turns on."""

    @staticmethod
    def _candidates(invocations):
        token = ERC20TokenType(8, total_supply=80)
        return conflict_candidates(
            [token.footprint(pid, operation) for pid, operation in invocations]
        )

    def _edges(self, invocations, token=None):
        token = token or ERC20TokenType(8, total_supply=80)
        window = _window(invocations)
        _assert_indexed_equals_all_pairs(token, window)
        return ConflictGraph.build(OpClassifier(token), window).edges

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
        candidate entry at all."""
        invocations = [
            (0, op("balanceOf", 1)),
            (1, op("balanceOf", 1)),
            (2, op("allowance", 1, 2)),
            (3, op("totalSupply")),
            (1, op("allowance", 1, 2)),
        ]
        assert self._edges(invocations) == {}
        assert self._candidates(invocations) == {}

    def test_a_written_cell_read_by_three_ops(self):
        """One transfer debits β(1) and three ops read it: exactly the
        three READ_ONLY edges, and a candidate entry only for the ops with
        a later partner."""
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
        assert self._candidates(invocations) == {0: {2}, 1: {2}, 2: {3}}

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
            _HoleyERC20({hole}),
        )
        assert edges == {
            (0, 1): PairKind.CONFLICT,
            (1, 2): PairKind.CONFLICT,
        }

    def test_empty_and_single_op_windows(self):
        assert self._edges([]) == {}
        assert self._edges([(0, op("transfer", 1, 2))]) == {}

    def test_examined_pairs_are_the_candidates_only(self):
        """``stats.pairs`` counts what the index visited — the edges —
        while the graph's commute count still derives from n(n-1)/2."""
        token = ERC20TokenType(8, total_supply=80)
        window = _window(
            [(a, op("transfer", (a + 1) % 8, 1)) for a in range(0, 8, 2)]
            + [(1, op("transferFrom", 0, 3, 1)), (5, op("balanceOf", 0))]
        )
        classifier = OpClassifier(token)
        graph = ConflictGraph.build(classifier, window)
        assert classifier.stats.pairs == len(graph.edges) == 3
        assert classifier.stats.by_kind == {"conflict": 1, "read-only": 2}
        assert views.commute_pairs(graph) == 6 * 5 // 2 - 3


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


def _scan_neighbors(graph: ConflictGraph, i: int) -> tuple[tuple, tuple]:
    """``i``'s predecessors and successors by a scan of every edge."""
    preds = sorted(a for a, b in graph.edges if b == i)
    succs = sorted(b for a, b in graph.edges if a == i)
    return tuple(preds), tuple(succs)


class TestAdjacency:
    """(d) the DAG neighbour lists ``build`` folds, against an edge scan."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(erc20_invocation(), max_size=24))
    def test_neighbors_and_degree_match_the_edge_scan(self, invocations):
        token = ERC20TokenType(N, total_supply=20, with_extensions=True)
        graph = ConflictGraph.build(OpClassifier(token), _window(invocations))
        chains = [c for c in graph.components() if len(c) > 1]
        folded = {}
        for chain, dag in zip(chains, graph.component_dags(), strict=True):
            # Back from positions in the chain to window indices.
            for k, below in enumerate(dag.preds):
                later = [j for j, ps in enumerate(dag.preds) if k in ps]
                folded[chain[k]] = (
                    tuple(chain[p] for p in below),
                    tuple(chain[j] for j in later),
                )
        for i in range(len(graph.ops)):
            # A vertex outside every DAG has no edge at all.
            assert folded.get(i, ((), ())) == _scan_neighbors(graph, i)

    def test_neighbors_returns_a_copy(self):
        token = ERC20TokenType(N, total_supply=20)
        graph = ConflictGraph.build(
            OpClassifier(token),
            _window([(0, op("transfer", 1, 2)), (1, op("transfer", 0, 2))]),
        )
        (dag,) = graph.component_dags()
        # The record is frozen and its fields are tuples: a caller can
        # neither rebind nor mutate what the next reader gets.
        with pytest.raises(AttributeError):
            dag.preds = ((), ())
        assert isinstance(dag.preds, tuple)
        assert all(isinstance(below, tuple) for below in dag.preds)
        assert isinstance(dag.priorities, tuple)
        assert graph.component_dags() == [
            ComponentDAG(((), (0,)), (2, 1), 2, 1)
        ]
