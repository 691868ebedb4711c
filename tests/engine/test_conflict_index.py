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
from repro.objects.footprint import EMPTY_FOOTPRINT
from repro.spec.operation import op
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadMix,
)
from tests.engine import graph_views as views
from tests.engine.test_classifier import (
    ACCOUNT,
    VALUE,
    N,
    erc20_invocation,
    erc721_invocation,
)
from tests.sync.sync_tap import tap_sync_results


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


class TestNamedWindows:
    """(b) the shapes the exactness argument turns on."""

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


class _EveryOpFolded(PipelinedExecutor):
    """The reference prefix state: every op of the earlier windows — the
    read-only ones too — replayed from the initial state."""

    def _prefix_state(self):
        drained = sorted(
            (unit.op for unit in self._pending_units), key=lambda op: op.seq
        )
        state, _ = self.object_type.run(
            (op.pid, op.operation) for op in drained
        )
        return state


class TestLazyPrefixState:
    def test_owner_only_traffic_applies_each_op_once(self):
        """No contended group: nothing reads the serial prefix state, so
        it is never advanced."""
        token = ERC20TokenType(16, total_supply=320)
        calls = 0
        apply = token.apply

        def counting_apply(state, pid, operation):
            nonlocal calls
            calls += 1
            return apply(state, pid, operation)

        token.apply = counting_apply
        items = TokenWorkloadGenerator(
            16, seed=5, mix=OWNER_ONLY_MIX
        ).generate(128)
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=4, window=32))
        state, responses, stats = engine.run_workload(items)
        assert stats.escalated_ops == 0
        assert calls == len(items)
        assert (state, responses) == ERC20TokenType(16, total_supply=320).run(
            [(item.pid, item.operation) for item in items]
        )

    def test_read_only_ops_stay_out_of_the_prefix_fold(self):
        """Contended windows with team sizing read the serial prefix state,
        yet only ops that can write are folded into it: ``apply`` runs once
        per op at commit plus once per *writing* op drained before the last
        read.  Every spender bound, and so every team, escalation stat,
        state and response, equals a reference that folds every op."""
        token = ERC20TokenType(16, total_supply=320)
        calls = 0
        apply = token.apply

        def counting_apply(state, pid, operation):
            nonlocal calls
            calls += 1
            return apply(state, pid, operation)

        token.apply = counting_apply
        items = TokenWorkloadGenerator(
            16,
            seed=13,
            mix=READ_MOSTLY_MIX,
            hotspot_fraction=0.5,
            hotspot_accounts=2,
        ).generate(256)
        config = EngineConfig(num_lanes=4, window=32, team_threshold=4)
        engine = PipelinedExecutor(token, config)
        results = tap_sync_results(engine.sync)
        #: Ops of the windows before each prefix-state read.
        drained_at_read: list[int] = []
        prefix_state = engine._prefix_state

        def watched_prefix_state():
            drained_at_read.append(len(engine._pending_units))
            return prefix_state()

        engine._prefix_state = watched_prefix_state
        state, responses, stats = engine.run_workload(items)
        reference = _EveryOpFolded(ERC20TokenType(16, total_supply=320), config)
        ref_results = tap_sync_results(reference.sync)
        ref_state, ref_responses, ref_stats = reference.run_workload(items)

        assert stats.team_ops > 0 and stats.escalated_ops > 0
        folded = items[: max(drained_at_read)]
        writing = [
            item
            for item in folded
            if not token.footprint(item.pid, item.operation).is_read_only
        ]
        assert 0 < len(writing) < len(folded)
        assert calls == len(items) + len(writing)
        assert [r.team_sizes for r in results] == [
            r.team_sizes for r in ref_results
        ]
        assert stats.as_dict() == ref_stats.as_dict()
        assert (state, responses) == (ref_state, ref_responses)
        assert (state, responses) == ERC20TokenType(16, total_supply=320).run(
            [(item.pid, item.operation) for item in items]
        )

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
        folded = {
            i: (dag.preds[i], dag.succs[i])
            for dag in graph.component_dags()
            for i in dag.nodes
        }
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
        dag.succs[0] = (99,)
        dag.preds.clear()
        assert graph.component_dags() == [
            ComponentDAG((0, 1), {0: (), 1: (0,)}, {0: (1,), 1: ()})
        ]
