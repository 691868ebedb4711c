"""``ConflictGraph.build`` against the derivation it replaced, bit for bit.

``build`` kinds each location-index candidate by a table on the two ops'
footprint classes (unknown, read-only, writing) instead of running the
footprint-pair rule, finds the contended set while it emits the edges, and
folds components and DAG predecessors out of one walk over the edges.
The reference below is the old derivation written out: every pair
through ``static_pair_kind``, union-find over the edges, an ascending
component walk, ``needs_consensus`` over every CONFLICT edge, the
brute-force DAG fold per chain (:func:`~tests.engine.graph_views.dag_over`:
positions, predecessors, bottom levels, critical path and width), and
the counters the per-candidate classification kept.  Every one of them
must come out equal — keys, kinds and order included — which is what
makes the kind table safe.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.commutativity import PairKind
from repro.engine import ConflictGraph, OpClassifier, plan_window
from repro.engine.classifier import ClassifierStats
from repro.engine.mempool import PendingOp
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.objects.footprint import static_pair_kind
from repro.spec.operation import op
from tests.engine.graph_views import dag_over
from tests.engine.test_classifier import (
    ACCOUNT,
    N,
    erc20_invocation,
    erc721_invocation,
)


class _MixedFamilies:
    """All a conflict graph reads of an object type — footprints — for
    windows mixing ERC20 ops (core and extensions), ERC721 ops and a stub
    op whose footprint is unknown.  Each operation travels tagged with its
    family; the families' cells may collide, which only adds overlaps."""

    def __init__(self) -> None:
        self.families = {
            "erc20": ERC20TokenType(N, total_supply=20, with_extensions=True),
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
    return [
        PendingOp(seq, pid, tagged)
        for seq, (pid, tagged) in enumerate(invocations)
    ]


def _reference(object_type, ops: list[PendingOp]):
    """The old derivation on a fresh classifier: ``(edges, components,
    contended, dags, counters)``."""
    classifier = OpClassifier(object_type)
    footprints = [classifier.footprint(pending) for pending in ops]
    n = len(ops)
    edges: dict[tuple[int, int], PairKind] = {}
    for i in range(n):
        for j in range(i + 1, n):
            kind = PairKind(static_pair_kind(footprints[i], footprints[j]))
            if kind is not PairKind.COMMUTE:
                edges[(i, j)] = kind

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    grouped: dict[int, list[int]] = {}
    for i in range(n):
        grouped.setdefault(find(i), []).append(i)
    components = sorted(grouped.values(), key=lambda group: group[0])

    contended = {
        i
        for (a, b), kind in edges.items()
        if kind is PairKind.CONFLICT
        and classifier.needs_consensus(ops[a], ops[b])
        for i in (a, b)
    }
    dags = [
        dag_over(component, edges)
        for component in components
        if len(component) > 1
    ]
    # Every candidate was classified once, and the candidates are exactly
    # the non-COMMUTE pairs.
    fallback = sum(
        1 for a, b in edges if footprints[a] is None or footprints[b] is None
    )
    counters = ClassifierStats(
        pairs=len(edges),
        static_pairs=len(edges) - fallback,
        fallback_pairs=fallback,
        by_kind=dict(Counter(kind.value for kind in edges.values())),
    )
    return edges, components, contended, dags, counters


def _assert_build_is_the_reference(object_type, ops) -> None:
    edges, components, contended, dags, counters = _reference(object_type, ops)
    classifier = OpClassifier(object_type)
    graph = ConflictGraph.build(classifier, ops)
    assert list(graph.edges.items()) == list(edges.items())
    assert graph.components() == components
    assert graph.contended == contended
    assert graph.component_dags() == dags
    assert classifier.stats.as_dict() == counters.as_dict()

    # The plan reads the same: chains, singletons, contended groups.
    plan = plan_window(OpClassifier(object_type), ops)
    chains = [c for c in components if len(c) > 1]
    assert plan.chains == chains
    assert plan.singletons == [c[0] for c in components if len(c) == 1]
    groups = [[i for i in c if i in contended] for c in chains]
    assert plan.contended_groups == sorted(
        (group for group in groups if group), key=lambda group: group[0]
    )
    assert plan.dags == dags


@settings(max_examples=300, deadline=None)
@given(mixed_window())
def test_mixed_families_with_unknown_footprints(ops):
    _assert_build_is_the_reference(MIXED, ops)


@settings(max_examples=200, deadline=None)
@given(st.lists(erc20_invocation(), max_size=32))
def test_erc20_windows(invocations):
    """ERC20 alone: denser chains and contended groups than the mix."""
    ops = [
        PendingOp(seq, pid, ("erc20", operation))
        for seq, (pid, operation) in enumerate(invocations)
    ]
    _assert_build_is_the_reference(MIXED, ops)


def test_counters_add_up_across_windows():
    """One bump per window: a classifier that built several windows holds
    the sum of what a fresh classifier counts for each of them."""
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
        ConflictGraph.build(shared, ops)
        fresh = OpClassifier(MIXED)
        ConflictGraph.build(fresh, ops)
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
