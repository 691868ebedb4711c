"""A window's conflict graph by the quadratic reference, and its views.

The program keeps no graph record: ``plan_window`` folds its plan out of
one location scan's predecessors in one walk.  The tests' graph is the
non-COMMUTE pairs of :meth:`OpClassifier.classify_window` (every pair
through the footprint rule), and every question only a test asks (a
pair's kind, a vertex's neighbours, a window's conflict rate, a chain's
DAG, the whole plan) is derived here from those edges alone, so none of
them can drift from the reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

from repro.analysis.commutativity import PairKind
from repro.engine.classifier import ClassifierStats, OpClassifier
from repro.engine.conflict_graph import ComponentDAG


@dataclass(frozen=True)
class Graph:
    """One window's reference graph."""

    ops: list
    #: ``(i, j) -> kind`` with ``i < j``, ascending; non-COMMUTE pairs only.
    edges: dict[tuple[int, int], PairKind]


def reference(object_type, ops) -> Graph:
    """The window's graph: the non-COMMUTE pairs of the all-pairs pass on
    a fresh classifier (so it shares no state with the plan's)."""
    kinds = OpClassifier(object_type).classify_window(ops)
    return Graph(
        list(ops),
        {
            pair: kind
            for pair, kind in kinds.items()
            if kind is not PairKind.COMMUTE
        },
    )


def kind(graph: Graph, i: int, j: int) -> PairKind:
    """The pair's edge kind, COMMUTE when there is no edge."""
    if i == j:
        raise ValueError("no self-edges in a conflict graph")
    return graph.edges.get((min(i, j), max(i, j)), PairKind.COMMUTE)


def adjacency(graph: Graph) -> list[list[int]]:
    """Per index, the indices sharing an edge with it, ascending."""
    adjacent: list[list[int]] = [[] for _ in graph.ops]
    for a, b in graph.edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    return [sorted(found) for found in adjacent]


def neighbors(graph: Graph, i: int) -> list[int]:
    return adjacency(graph)[i]


def degree(graph: Graph, i: int) -> int:
    return len(neighbors(graph, i))


def count_kind(graph: Graph, wanted: PairKind) -> int:
    return sum(1 for found in graph.edges.values() if found is wanted)


def commute_pairs(graph: Graph) -> int:
    n = len(graph.ops)
    return n * (n - 1) // 2 - len(graph.edges)


def conflict_rate(graph: Graph) -> float:
    """CONFLICT edges as a fraction of all pairs in the window."""
    n = len(graph.ops)
    total = n * (n - 1) // 2
    return count_kind(graph, PairKind.CONFLICT) / total if total else 0.0


def components(graph: Graph) -> list[list[int]]:
    """Connected components (ascending indices), by first index: a naive
    union-find over the edges."""
    parent = list(range(len(graph.ops)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in graph.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    grouped: dict[int, list[int]] = {}
    for i in range(len(graph.ops)):
        grouped.setdefault(find(i), []).append(i)
    return sorted(grouped.values(), key=lambda group: group[0])


def dag_over(chain, edges) -> ComponentDAG:
    """The precedence DAG of ``chain`` (window indices) by brute force:
    positions by sorting, each position's predecessors by a scan of every
    edge, and every longest path by recursion over them — the depth of a
    node (longest path ending there) and its bottom level (longest path
    leaving it), both counted in nodes.  Width is the largest number of
    nodes sharing one depth."""
    members = sorted(chain)
    at = {i: k for k, i in enumerate(members)}
    preds = tuple(
        tuple(sorted(at[a] for a, b in edges if b == i and a in at))
        for i in members
    )
    succs = [
        [s for s in range(len(members)) if k in preds[s]]
        for k in range(len(members))
    ]

    @cache
    def depth(k: int) -> int:
        return 1 + max((depth(p) for p in preds[k]), default=0)

    @cache
    def bottom(k: int) -> int:
        return 1 + max((bottom(s) for s in succs[k]), default=0)

    depths = [depth(k) for k in range(len(members))]
    return ComponentDAG(
        preds,
        tuple(bottom(k) for k in range(len(members))),
        max(depths),
        max(Counter(depths).values()),
    )


def reference_dag(graph: Graph, chain) -> ComponentDAG:
    """``chain``'s DAG derived from ``graph.edges`` alone (:func:`dag_over`)
    — what ``plan.chain_dag(k)`` must equal for ``plan.chains[k]``."""
    return dag_over(chain, graph.edges)


def plan_dags(plan) -> list[ComponentDAG]:
    """Every chain's positional DAG, as the router builds the one it
    ships (:meth:`~repro.engine.rounds.WindowPlan.chain_dag`)."""
    return [plan.chain_dag(k) for k in range(len(plan.chains))]


def reference_plan(object_type, ops) -> tuple[Graph, dict, ClassifierStats]:
    """The reference graph; every ``WindowPlan`` field but ``ops`` and
    ``footprints``, derived from it; and the counters the plan's
    classifier must hold: one count per non-COMMUTE pair, the scan's
    edges being exactly those.  An op is contended when it sits on a
    CONFLICT edge between distinct processes whose footprints are unknown
    or contend on a cell — the consensus rule, written out here."""
    graph = reference(object_type, ops)
    found = components(graph)
    chains = [c for c in found if len(c) > 1]
    classifier = OpClassifier(object_type)
    footprints = [classifier.footprint(pending) for pending in ops]

    def needs_consensus(a: int, b: int) -> bool:
        if ops[a].pid == ops[b].pid:
            return False
        fa, fb = footprints[a], footprints[b]
        return fa is None or fb is None or fa.contends_with(fb)

    contended = {
        i
        for (a, b), pair_kind in graph.edges.items()
        if pair_kind is PairKind.CONFLICT and needs_consensus(a, b)
        for i in (a, b)
    }
    groups = [[i for i in c if i in contended] for c in chains]
    dags = [dag_over(chain, graph.edges) for chain in chains]
    priorities = [1] * len(ops)
    for chain, dag in zip(chains, dags):
        for i, level in zip(chain, dag.priorities):
            priorities[i] = level
    unknown = [fp is None for fp in footprints]
    fallback = sum(1 for a, b in graph.edges if unknown[a] or unknown[b])
    counters = ClassifierStats(
        pairs=len(graph.edges),
        static_pairs=len(graph.edges) - fallback,
        fallback_pairs=fallback,
        by_kind=dict(Counter(k.value for k in graph.edges.values())),
    )
    fields = {
        "chains": chains,
        "singletons": [c[0] for c in found if len(c) == 1],
        "contended_groups": sorted(
            (group for group in groups if group), key=lambda g: g[0]
        ),
        "shapes": [(dag.critical_path, dag.width) for dag in dags],
        "preds": [
            sorted(a for a, b in graph.edges if b == i)
            for i in range(len(ops))
        ],
        "priorities": priorities,
    }
    return graph, fields, counters
