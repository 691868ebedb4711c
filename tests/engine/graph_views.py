"""Views of a ``ConflictGraph`` that only the tests ask for.

The program reads a graph's edges, components and DAGs; these questions
(a pair's kind, a vertex's neighbours, a window's conflict rate) are
derived here from ``graph.edges`` alone, so they cannot drift from it.
"""

from __future__ import annotations

from repro.analysis.commutativity import PairKind
from repro.engine.conflict_graph import ConflictGraph


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
