"""One footprint pass per window, components once per graph.

Deterministic guards (counters, no clocks) for what makes an op that
commutes with its whole window cheap: its footprint is computed once —
``ConflictGraph.build`` does it, inside ``plan_window``, and every later
stage (split, sync team sizing, placement, frontier, the cluster's
routing) reads ``plan.footprints`` — and the graph's components and DAGs
are folded once, by ``build``, however many stages ask.  There is no memo
behind the footprints: the count is of ``object_type.footprint`` calls.
"""

from __future__ import annotations

import pytest

import repro.engine.classifier as classifier_module
import repro.objects.footprint as footprint_module
from repro.analysis.commutativity import PairKind
from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import OpClassifier, PendingOp, PipelinedExecutor
from repro.engine.conflict_graph import ConflictGraph
from repro.engine.rounds import plan_window
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from repro.workloads import (
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadItem,
)
from tests.engine import graph_views as views

N = 16


def _count_calls(obj, name: str) -> list[int]:
    """Shadow ``obj.name`` with a counting twin; returns the live count."""
    calls = [0]
    wrapped = getattr(obj, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return wrapped(*args, **kwargs)

    setattr(obj, name, counting)
    return calls


class TestOneFootprintPass:
    @pytest.mark.parametrize("validate", [False, True])
    def test_engine_computes_each_footprint_once_per_window(self, validate):
        token = ERC20TokenType(N, total_supply=100 * N)
        # Owner-only: no contended group (contended traffic has its own
        # case below).  Repeats are welcome — nothing remembers an
        # invocation from one op to the next.
        items = [
            WorkloadItem(i % N, op("transfer", (7 * i + 3) % N, 1 + i // N))
            for i in range(6 * N)
        ]
        items += [WorkloadItem(i, op("balanceOf", i)) for i in range(N)] * 2
        computed = _count_calls(token, "footprint")
        engine = PipelinedExecutor(
            token, EngineConfig(num_lanes=4, window=16, validate=validate)
        )
        engine.run_workload(items)
        assert engine.stats.escalated_ops == 0
        # ``validate`` adds exactly the all-pairs oracle's own pass.
        assert computed[0] == (2 if validate else 1) * len(items)
        assert engine.classifier.stats.footprint_cache_hits == 0

    def test_contended_ops_are_sized_from_the_plans_footprints(self):
        """The sync planner splits and sizes contended groups from the
        plan's footprints: escalated ops cost no second pass."""
        token = ERC20TokenType(N, total_supply=100 * N)
        generator = TokenWorkloadGenerator(N, seed=5, mix=SPENDER_HEAVY_MIX)
        items = generator.generate(160)
        computed = _count_calls(token, "footprint")
        engine = PipelinedExecutor(
            token, EngineConfig(num_lanes=4, window=32, team_threshold=4)
        )
        engine.run_workload(items)
        assert engine.stats.escalated_ops > 0
        assert engine.stats.team_ops > 0  # teams were sized, not skipped
        assert computed[0] == len(items)

    def test_router_computes_each_footprint_once_and_nodes_none(self):
        token = ERC20TokenType(N, total_supply=100 * N)
        generator = TokenWorkloadGenerator(N, seed=5, mix=SPENDER_HEAVY_MIX)
        items = generator.generate(160)
        cluster = TokenCluster(
            token, ClusterConfig(num_nodes=2, lanes_per_node=2, window=32)
        )
        computed = _count_calls(token, "footprint")
        on_nodes = [
            _count_calls(node.classifier, "footprint")
            for node in cluster.nodes
        ]
        _, _, stats = cluster.run_workload(items)
        assert stats.escalated_ops > 0  # chains, leases and sync all ran
        # Fault-free, every op is routed in exactly one window — and the
        # router and every node share the one token.
        assert computed[0] == len(items)
        assert on_nodes == [[0], [0]]


class _UnwalkableEdges(dict):
    """An edge dict that fails the test if anything walks it."""

    def _walked(self, *args):
        raise AssertionError("the edges were walked after build")

    __iter__ = keys = values = items = _walked


def _refuse_the_pair_rule(*args):
    raise AssertionError("build ran static_pair_kind")


class TestComponentsOnce:
    def _graph(self):
        token = ERC20TokenType(N, total_supply=100 * N)
        ops = [
            PendingOp(0, 0, op("transfer", 1, 1)),
            PendingOp(1, 5, op("balanceOf", 6)),
            PendingOp(2, 1, op("transfer", 2, 1)),
            PendingOp(3, 7, op("balanceOf", 7)),
            PendingOp(4, 2, op("transfer", 3, 1)),
        ]
        classifier = OpClassifier(token)
        graph = ConflictGraph.build(classifier, ops)
        assert list(graph.edges) == [(0, 2), (2, 4)]
        return classifier, graph

    def test_built_by_table_and_read_without_walking_the_edges(
        self, monkeypatch
    ):
        """``build`` kinds its candidates by table, not by the pair rule,
        and folds everything the readers need: neither ``components`` nor
        ``component_dags`` walks the edges again, however often asked."""
        for module in (footprint_module, classifier_module):
            monkeypatch.setattr(
                module, "static_pair_kind", _refuse_the_pair_rule
            )
        _, graph = self._graph()
        graph.edges = _UnwalkableEdges(graph.edges)
        for _ in range(2):
            assert graph.components() == [[0, 2, 4], [1], [3]]
            (dag,) = graph.component_dags()
            assert dag.nodes == (0, 2, 4)
            assert dag.succs == {0: (2,), 2: (4,), 4: ()}

    def test_callers_cannot_corrupt_the_memo(self, monkeypatch):
        classifier, graph = self._graph()
        found = graph.components()
        found[0].append(99)
        found.clear()
        # ``plan_window`` hands the lists on as ``chains``: they are the
        # caller's to keep.  (It looks ``build`` up on the class per call.)
        monkeypatch.setattr(
            ConflictGraph, "build", lambda *args, **kwargs: graph
        )
        plan = plan_window(classifier, graph.ops)
        plan.chains[0].reverse()
        plan.singletons.clear()
        assert graph.components() == [[0, 2, 4], [1], [3]]
        (dag,) = graph.component_dags()
        assert dag.nodes == (0, 2, 4)
        assert dag.preds == {0: (), 2: (0,), 4: (2,)}
        assert views.kind(graph, 0, 2) is PairKind.CONFLICT
