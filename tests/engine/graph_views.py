"""Views of a ``ConflictGraph`` that only the tests ask for.

The program reads a graph's edges, components and DAGs; these questions
(a pair's kind, a vertex's neighbours, a window's conflict rate, a
chain's DAG) are derived here from ``graph.edges`` alone, so they cannot
drift from it.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from repro.analysis.commutativity import PairKind
from repro.engine.conflict_graph import ComponentDAG, ConflictGraph


def kind(graph: ConflictGraph, i: int, j: int) -> PairKind:
    """The pair's edge kind, COMMUTE when there is no edge."""
    if i == j:
        raise ValueError("no self-edges in a conflict graph")
    return graph.edges.get((min(i, j), max(i, j)), PairKind.COMMUTE)


def adjacency(graph: ConflictGraph) -> list[list[int]]:
    """Per index, the indices sharing an edge with it, ascending."""
    adjacent: list[list[int]] = [[] for _ in graph.ops]
    for a, b in graph.edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    return [sorted(found) for found in adjacent]


def neighbors(graph: ConflictGraph, i: int) -> list[int]:
    return adjacency(graph)[i]


def degree(graph: ConflictGraph, i: int) -> int:
    return len(neighbors(graph, i))


def count_kind(graph: ConflictGraph, wanted: PairKind) -> int:
    return sum(1 for found in graph.edges.values() if found is wanted)


def commute_pairs(graph: ConflictGraph) -> int:
    n = len(graph.ops)
    return n * (n - 1) // 2 - len(graph.edges)


def conflict_rate(graph: ConflictGraph) -> float:
    """CONFLICT edges as a fraction of all pairs in the window."""
    n = len(graph.ops)
    total = n * (n - 1) // 2
    return count_kind(graph, PairKind.CONFLICT) / total if total else 0.0


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


def reference_dag(graph: ConflictGraph, chain) -> ComponentDAG:
    """``chain``'s DAG derived from ``graph.edges`` alone (:func:`dag_over`)
    — what ``plan_window(...).dags[k]`` must equal for ``chains[k]``."""
    return dag_over(chain, graph.edges)
