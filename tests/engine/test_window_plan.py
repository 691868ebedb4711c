"""The window plan against its quadratic reference, and its invariants.

:func:`~repro.engine.rounds.plan_window` is the one place a window is
planned — for the engine and the router — and it folds the plan out of
one location scan's predecessors in one walk, kinding each edge by a
table on the two ops' footprint classes.  The reference is written out
in :func:`tests.reference.plan`: every pair through
``static_pair_kind``, components by a naive union-find, the consensus
rule over every CONFLICT edge, each chain's DAG by recursion over its
edges.  Every plan field and every
classifier counter must come out equal, on ERC20, ERC721, k-asset-
transfer, mixed-family and unknown-footprint windows — which is what
makes the scan and the kind table safe.  Then what every caller
assumes of the result (``chains`` and ``singletons`` partition the
window, groups sit inside one chain) and the wall benchmark's frozen
adapters over it.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.classifier as classifier_module
import repro.objects.footprint as footprint_module
from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import OpClassifier, PipelinedExecutor, WindowPlan
from repro.engine.classifier import ClassifierStats
from repro.engine.conflict_graph import ConflictGraph
from repro.engine.mempool import PendingOp
from repro.engine.rounds import WallAdapters, plan_window
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.objects.erc1155 import ERC1155TokenType
from repro.spec.operation import op
from repro.workloads import TokenWorkloadGenerator, WorkloadItem, WorkloadMix
from benchmarks.wall.scenarios import READ_MOSTLY_MIX as WALL_READ_MOSTLY
from tests import reference
from tests.engine.test_classifier import (
    ACCOUNT,
    VALUE,
    N,
    erc20_invocation,
    erc721_invocation,
)
from tests.engine.test_dag import MIXES_WITH_CHAINS

TOKEN = ERC20TokenType(N, total_supply=20, with_extensions=True)


def _window(invocations) -> list[PendingOp]:
    return [
        PendingOp(seq, pid, operation)
        for seq, (pid, operation) in enumerate(invocations)
    ]


def assert_plan_is_the_reference(object_type, ops) -> WindowPlan:
    """``plan_window`` on a fresh classifier equals the reference field
    for field, its counters included, and the scan's predecessors are
    exactly the reference's edges, each listed once, ascending."""
    expected = reference.plan(object_type, ops)
    classifier = OpClassifier(object_type)
    plan = plan_window(classifier, ops)
    assert plan.ops == ops
    assert plan.footprints == expected.footprints
    assert _fields(plan) == _fields(expected)
    assert _dags(plan) == expected.dags
    assert classifier.stats.as_dict() == expected.counters.as_dict()
    return plan


def _fields(plan) -> dict:
    """The plan's :data:`reference.FIELDS`, each op's preds as a list."""
    found = {name: getattr(plan, name) for name in reference.FIELDS}
    found["preds"] = [list(below) for below in plan.preds]
    return found


def _dags(plan) -> list:
    """Every chain's DAG, as the router builds the one it ships."""
    return [plan.chain_dag(k) for k in range(len(plan.chains))]


class _MixedFamilies:
    """All a plan reads of an object type — footprints — for windows
    mixing ERC20 ops (core and extensions), ERC721 ops and a stub op
    whose footprint is unknown.  Each operation travels tagged with its
    family; the families' cells may collide, which only adds overlaps."""

    def __init__(self) -> None:
        self.families = {
            "erc20": TOKEN,
            "erc721": ERC721TokenType(N, initial_owners=[0, 1, 2]),
        }

    def footprint(self, pid, tagged):
        family, operation = tagged
        if family == "stub":
            return None
        return self.families[family].footprint(pid, operation)


MIXED = _MixedFamilies()


def _tag(family: str):
    return lambda invocation: (invocation[0], (family, invocation[1]))


@st.composite
def mixed_window(draw) -> list[PendingOp]:
    invocations = draw(
        st.lists(
            st.one_of(
                erc20_invocation().map(_tag("erc20")),
                erc721_invocation().map(_tag("erc721")),
            ),
            max_size=24,
        )
    )
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(invocations)))
        invocations.insert(at, (draw(ACCOUNT), ("stub", None)))
    return _window(invocations)


class HoleyERC20(ERC20TokenType):
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


class TestThePlanIsTheReference:
    @settings(max_examples=300, deadline=None)
    @given(mixed_window())
    def test_mixed_families_with_unknown_footprints(self, ops):
        assert_plan_is_the_reference(MIXED, ops)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(erc20_invocation(), max_size=32))
    def test_erc20(self, invocations):
        """ERC20 alone: denser chains and contended groups than the mix."""
        assert_plan_is_the_reference(TOKEN, _window(invocations))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(erc721_invocation(), max_size=20))
    def test_erc721(self, invocations):
        assert_plan_is_the_reference(
            ERC721TokenType(N, initial_owners=[0, 1, 2]), _window(invocations)
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(asset_transfer_invocation(), max_size=20))
    def test_k_asset_transfer(self, invocations):
        assert_plan_is_the_reference(
            AssetTransferType(
                [10] * N, owner_map=[{0, 1}] + [{a} for a in range(1, N)]
            ),
            _window(invocations),
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(erc1155_invocation(), max_size=12))
    def test_all_unknown_window(self, invocations):
        """ERC1155 inherits the ``None`` footprint: every pair is an edge,
        so a window of two or more ops is one chain."""
        ops = _window(invocations)
        plan = assert_plan_is_the_reference(ERC1155TokenType([[5, 5]] * N), ops)
        n = len(ops)
        assert plan.chained_ops == (n if n > 1 else 0)
        assert all(width == 1 for _, width in plan.shapes)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.lists(erc20_invocation(), max_size=20))
    def test_mixed_known_and_unknown(self, data, invocations):
        holes = {
            invocation
            for invocation in invocations
            if data.draw(st.booleans())
        }
        assert_plan_is_the_reference(HoleyERC20(holes), _window(invocations))

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
        assert_plan_is_the_reference(HoleyERC20(holes), _window(invocations))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(MIXES_WITH_CHAINS)),
        st.integers(0, 2**16),
        st.integers(1, 64),
    )
    def test_every_workload_mix(self, mix, seed, size):
        """Generated windows of up to 64 ops on 12 accounts, the chain-heavy
        mix included: the longest chains held to the reference."""
        items = TokenWorkloadGenerator(
            12, seed=seed, mix=MIXES_WITH_CHAINS[mix]
        ).generate(size)
        assert_plan_is_the_reference(
            ERC20TokenType(12, total_supply=240),
            _window([(item.pid, item.operation) for item in items]),
        )


def test_an_op_joining_two_rooted_components_merges_them():
    """Op 2's partners, 3 and 4, already sit in two components rooted
    before it (at 1 and at 0): the union-find must re-root at the
    smaller root as it walks them, or the window's one chain falls
    apart."""
    ops = _window(
        [
            (2, op("transfer", 2, 1)),
            (0, op("balanceOf", 4)),
            (5, op("transfer", 0, 1)),
            (4, op("transfer", 5, 1)),
            (2, op("transfer", 5, 1)),
        ]
    )
    token = ERC20TokenType(6, total_supply=60)
    plan = assert_plan_is_the_reference(token, ops)
    assert plan.chains == [[0, 1, 2, 3, 4]]


def test_counters_add_up_across_windows():
    """One bump per window: a classifier that planned several windows
    holds the sum of what a fresh classifier counts for each of them."""
    windows = [
        [
            PendingOp(0, 0, ("erc20", op("transfer", 1, 2))),
            PendingOp(1, 1, ("erc20", op("balanceOf", 0))),
        ],
        [
            PendingOp(2, 1, ("stub", None)),
            PendingOp(3, 2, ("erc721", op("ownerOf", 1))),
            PendingOp(4, 0, ("erc20", op("transfer", 1, 1))),
        ],
        [
            PendingOp(5, 0, ("erc20", op("transfer", 1, 1))),
            PendingOp(6, 0, ("erc20", op("transfer", 2, 1))),
        ],
    ]
    shared = OpClassifier(MIXED)
    total: Counter[str] = Counter()
    for ops in windows:
        plan_window(shared, ops)
        fresh = OpClassifier(MIXED)
        plan_window(fresh, ops)
        total.update(_counts(fresh.stats))
    assert _counts(shared.stats) == total
    assert set(total) == {
        "pairs", "static", "fallback", "conflict", "read-only"
    }


def _counts(stats: ClassifierStats) -> Counter[str]:
    found = Counter(stats.by_kind)
    found.update(
        pairs=stats.pairs,
        static=stats.static_pairs,
        fallback=stats.fallback_pairs,
    )
    return found


def _refuse_the_pair_rule(*args):
    raise AssertionError("the plan ran static_pair_kind")


def test_the_plan_never_runs_the_pair_rule(monkeypatch):
    """Edges are kinded by the class table, never by the pair rule."""
    token = ERC20TokenType(16, total_supply=1600)
    ops = _window(
        [
            (0, op("transfer", 1, 1)),
            (5, op("balanceOf", 6)),
            (1, op("transfer", 2, 1)),
            (7, op("balanceOf", 7)),
            (2, op("transfer", 3, 1)),
        ]
    )
    expected = reference.plan(token, ops)
    for module in (footprint_module, classifier_module):
        monkeypatch.setattr(module, "static_pair_kind", _refuse_the_pair_rule)
    classifier = OpClassifier(token)
    plan = plan_window(classifier, ops)
    assert (plan.chains, plan.singletons) == ([[0, 2, 4]], [1, 3])
    assert _fields(plan) == _fields(expected)
    assert classifier.stats.as_dict() == expected.counters.as_dict()


@settings(max_examples=200, deadline=None)
@given(invocations=st.lists(erc20_invocation(), max_size=24))
def test_plan_invariants(invocations):
    plan = plan_window(OpClassifier(TOKEN), _window(invocations))
    n = len(plan.ops)

    # Chains and singletons partition the window.
    covered = [i for chain in plan.chains for i in chain] + plan.singletons
    assert sorted(covered) == list(range(n))
    assert all(len(chain) > 1 for chain in plan.chains)
    assert all(chain == sorted(chain) for chain in plan.chains)
    assert plan.chained_ops == n - len(plan.singletons)

    # The DAGs are aligned with the chains, over positions in them.
    assert len(plan.shapes) == len(plan.chains)
    for dag, chain in zip(_dags(plan), plan.chains):
        assert dag.size == len(chain)

    # Each group is an ordered subset of exactly one chain.
    for group in plan.contended_groups:
        assert group and group == sorted(group)
        owners = [chain for chain in plan.chains if set(group) <= set(chain)]
        assert len(owners) == 1
        others = [chain for chain in plan.chains if chain is not owners[0]]
        assert not any(set(group) & set(chain) for chain in others)
    firsts = [group[0] for group in plan.contended_groups]
    assert firsts == sorted(firsts)
    assert len(plan.escalated_idx) == len(set(plan.escalated_idx))


def test_an_empty_window_plans_to_nothing():
    plan = plan_window(OpClassifier(TOKEN), [])
    assert plan.escalated_idx == []
    assert plan.chained_ops == 0
    assert (plan.chains, plan.singletons, plan.shapes) == ([], [], [])


class TestWallAdapters:
    """``benchmarks/wall`` binds ``ConflictGraph.build / components /
    component_dags`` and a scheduler's ``split / split_sync`` by name.
    They are one-line adapters over the plan: they resolve and agree
    with ``plan_window``, and neither executor calls them."""

    #: A contended chain (two spenders of account 0 and the approvals
    #: enabling them), a credit enabling a spend, and a lone read.
    CALLS = [
        (0, op("approve", 1, 5)),
        (0, op("approve", 2, 5)),
        (1, op("transferFrom", 0, 3, 1)),
        (2, op("transferFrom", 0, 3, 1)),
        (4, op("transfer", 5, 1)),
        (5, op("transfer", 6, 1)),
        (7, op("balanceOf", 7)),
    ]

    @staticmethod
    def token():
        return ERC20TokenType(8, total_supply=80)
    ADAPTERS = [
        (ConflictGraph, "build"),
        (ConflictGraph, "components"),
        (ConflictGraph, "component_dags"),
        (WallAdapters, "split"),
        (WallAdapters, "split_sync"),
    ]

    def test_the_adapters_agree_with_the_plan(self):
        token = self.token()
        ops = _window(self.CALLS)
        plan = plan_window(OpClassifier(token), ops)
        assert plan.chains == [[0, 1, 2, 3], [4, 5]]
        assert plan.contended_groups == [[0, 1, 2, 3]]
        assert plan.singletons == [6]
        graph = ConflictGraph.build(OpClassifier(token), ops)
        assert graph == plan
        assert ConflictGraph.components(graph) == sorted(
            plan.chains + [[i] for i in plan.singletons]
        )
        assert ConflictGraph.component_dags(graph) == _dags(plan)
        scheduler = WallAdapters(OpClassifier(token))
        assert scheduler.split_sync(graph) == (
            plan.chains,
            plan.singletons,
            plan.contended_groups,
        )
        assert scheduler.split(graph) == (
            plan.chains,
            plan.singletons,
            sorted(plan.escalated_idx),
        )

    @pytest.mark.parametrize("executor", ["engine", "cluster"])
    def test_neither_executor_calls_them(self, monkeypatch, executor):
        def refuse(*args, **kwargs):
            raise AssertionError("a frozen adapter was called")

        for owner, name in self.ADAPTERS:
            monkeypatch.setattr(owner, name, refuse)
        token = self.token()
        items = [WorkloadItem(pid, operation) for pid, operation in self.CALLS]
        if executor == "engine":
            run = PipelinedExecutor(token, EngineConfig(num_lanes=2, window=4))
        else:
            run = TokenCluster(
                token, ClusterConfig(num_nodes=2, lanes_per_node=2, window=4)
            )
        state, responses, _ = run.run_workload(items)
        assert (state, responses) == self.token().run(self.CALLS)
