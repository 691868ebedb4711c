"""The one written-out reference for what the program decides.

The program plans a window in one location scan and one walk
(``plan_window``), places it in one sorted list-scheduling pass
(``dag_list_schedule``, ``lane_fill``) and carries order across windows
in per-cell frontier tables (``PipelinedExecutor._place_window_dag``);
each is fast because it skips what cannot matter.  The tests derive what
each must decide here, the plainest way, and nowhere else:

* :func:`plan` — a window's plan: every pair through
  :func:`~repro.objects.footprint.static_pair_kind`, components by a
  naive union-find, each chain's DAG by recursion over its edges, the
  contended set by the consensus rule and the classifier's counters;
* :func:`list_schedule` — the list scheduler: the ready task of highest
  priority (lowest index on ties) takes the earliest start over every
  lane and every idle gap a floored task left behind;
* :class:`Frontier` — the engine's cross-window floors, a fold of the
  latest finish per cell and access kind over the placed units.

The taps (``tests/engine/placement_tap.py``, ``tests/cluster/
plan_tap.py``, ``tests/cluster/node_tap.py``) and every equality test
call these.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cache

from repro.analysis.commutativity import PairKind
from repro.engine.classifier import ClassifierStats
from repro.engine.conflict_graph import ComponentDAG
from repro.errors import EngineError
from repro.objects.footprint import static_pair_kind

#: The ``WindowPlan`` fields :func:`plan` derives, all but the footprints.
FIELDS = (
    "chains",
    "singletons",
    "contended_groups",
    "shapes",
    "preds",
    "priorities",
)


@dataclass(frozen=True)
class Plan:
    """One window's reference plan, by index into its ops."""

    footprints: list
    #: ``(i, j) -> kind`` with ``i < j``, ascending; non-COMMUTE pairs only.
    edges: dict[tuple[int, int], PairKind]
    chains: list[list[int]]
    singletons: list[int]
    contended_groups: list[list[int]]
    shapes: list[tuple[int, int]]
    #: Per op, every earlier op it shares an edge with, ascending.
    preds: list[list[int]]
    #: Per op, its bottom level: the longest path to a sink, in ops.
    priorities: list[int]
    #: Per chain, its DAG over positions in the chain.
    dags: list[ComponentDAG]
    #: What a fresh classifier counts for the window.
    counters: ClassifierStats


def plan(object_type, ops) -> Plan:
    """The plan of the window ``ops`` (``PendingOp``-like: ``pid``,
    ``operation``).  An op is contended when it sits on a CONFLICT edge
    between distinct processes whose footprints are unknown or whose
    contended cells meet."""
    footprints = [object_type.footprint(o.pid, o.operation) for o in ops]
    n = len(ops)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            kind = PairKind(static_pair_kind(footprints[i], footprints[j]))
            if kind is not PairKind.COMMUTE:
                edges[i, j] = kind
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        preds[j].append(i)
        succs[i].append(j)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in edges:
        a, b = find(i), find(j)
        parent[max(a, b)] = min(a, b)
    grouped: dict[int, list[int]] = {}
    for i in range(n):
        grouped.setdefault(find(i), []).append(i)
    components = sorted(grouped.values())
    chains = [c for c in components if len(c) > 1]

    @cache
    def depth(k: int) -> int:
        return 1 + max((depth(p) for p in preds[k]), default=0)

    @cache
    def level(k: int) -> int:
        return 1 + max((level(s) for s in succs[k]), default=0)

    dags = []
    for chain in chains:
        at = {i: position for position, i in enumerate(chain)}
        depths = [depth(i) for i in chain]
        dags.append(
            ComponentDAG(
                tuple(tuple(at[p] for p in preds[i]) for i in chain),
                tuple(level(i) for i in chain),
                max(depths),
                max(Counter(depths).values()),
            )
        )

    def needs_consensus(i: int, j: int) -> bool:
        first, second = footprints[i], footprints[j]
        return ops[i].pid != ops[j].pid and (
            first is None
            or second is None
            or not first.contended.isdisjoint(second.contended)
        )

    contended = {
        k
        for (i, j), kind in edges.items()
        if kind is PairKind.CONFLICT and needs_consensus(i, j)
        for k in (i, j)
    }
    groups = [[i for i in chain if i in contended] for chain in chains]
    fallback = sum(
        1 for i, j in edges if footprints[i] is None or footprints[j] is None
    )
    return Plan(
        footprints,
        edges,
        chains,
        [c[0] for c in components if len(c) == 1],
        sorted((group for group in groups if group), key=lambda g: g[0]),
        [(dag.critical_path, dag.width) for dag in dags],
        preds,
        [level(k) for k in range(n)],
        dags,
        ClassifierStats(
            pairs=len(edges),
            static_pairs=len(edges) - fallback,
            fallback_pairs=fallback,
            by_kind=dict(Counter(kind.value for kind in edges.values())),
        ),
    )


def broken_edges(preds, placed) -> list[tuple[int, int]]:
    """``(p, k)`` per edge whose successor ``k`` starts before its
    predecessor ``p`` finishes (``placed`` holds ``(start, finish, lane)``
    per task)."""
    return [
        (p, k)
        for k, below in enumerate(preds)
        for p in below
        if placed[p][1] > placed[k][0]
    ]


def list_schedule(preds, priorities, lane_free, floors=None) -> list:
    """Critical-path-first list scheduling of unit-cost tasks, by a ready
    heap that scans every lane per task: ``(start, finish, lane)`` per
    task; mutates ``lane_free``.  A task's earliest start is its floor
    raised by each predecessor's finish as that one is placed (so of
    equal values the floor, then the first placed, stays).  Each lane
    offers its first idle gap the task fits, else its tail; the lane
    with the smallest ``(start, free time, id)`` takes it.  A gap is the
    idle time a task placed past its lane's tail leaves behind; a fill
    splits it into the slivers before and after."""
    n = len(preds)
    succs: list[list[int]] = [[] for _ in range(n)]
    missing = [len(below) for below in preds]
    for i, below in enumerate(preds):
        for p in below:
            succs[p].append(i)
    est = list(floors) if floors is not None else [0.0] * n
    ready = [(-priorities[i], i) for i in range(n) if not missing[i]]
    heapq.heapify(ready)
    out: list = [None] * n
    #: Per lane: idle ``[start, end)`` intervals behind its tail, ascending.
    gaps: list[list[tuple]] = [[] for _ in lane_free]
    while ready:
        _, i = heapq.heappop(ready)
        best = None
        for lane, free in enumerate(lane_free):
            start, at = max(free, est[i]), None
            for k, (gap_start, gap_end) in enumerate(gaps[lane]):
                if max(gap_start, est[i]) + 1 <= gap_end:
                    start, at = max(gap_start, est[i]), k
                    break
            if best is None or (start, free, lane) < best[0]:
                best = ((start, free, lane), at)
        (start, _, lane), at = best
        finish = start + 1
        if at is not None:
            gap_start, gap_end = gaps[lane].pop(at)
            if finish < gap_end:
                gaps[lane].insert(at, (finish, gap_end))
            if gap_start < start:
                gaps[lane].insert(at, (gap_start, start))
        else:
            if start > lane_free[lane]:
                gaps[lane].append((lane_free[lane], start))
            lane_free[lane] = finish
        out[i] = (start, finish, lane)
        for s in succs[i]:
            if finish > est[s]:
                est[s] = finish
            missing[s] -= 1
            if not missing[s]:
                heapq.heappush(ready, (-priorities[s], s))
    if None in out:
        raise EngineError("dependency cycle in the reference schedule")
    return out


def lane_prev(placed, carried) -> list:
    """Per task, the finish of the task before it on its lane, by start
    (the lane's carried-in free time for the first)."""
    found: list = [None] * len(placed)
    for lane, free in enumerate(carried):
        on_lane = sorted(
            (start, i) for i, (start, _, on) in enumerate(placed) if on == lane
        )
        for _, i in on_lane:
            found[i] = free
            free = placed[i][1]
    return found


class Frontier:
    """The engine's cross-window floors, folded over placed units: per
    cell, the latest finish of a unit that observes it, that writes it
    (``adds`` or ``sets``) and that ``sets`` it; of every unknown
    footprint (``top``) and of every unit (``everything``)."""

    def __init__(self) -> None:
        self.observed: dict = {}
        self.wrote: dict = {}
        self.sets: dict = {}
        self.top = self.everything = 0.0

    def floor(self, footprint, admitted: float) -> float:
        """The earliest start of an op admitted at ``admitted``: reads
        wait for earlier writes, deltas for earlier reads and absolute
        writes, absolute writes for every earlier access; an unknown
        footprint waits for everything, every op for the last unknown."""
        if footprint is None:
            return max(admitted, self.everything)
        waits = [admitted, self.top]
        for cell in footprint.observes:
            waits.append(self.wrote.get(cell, 0.0))
        for cell in footprint.adds:
            waits += [self.observed.get(cell, 0.0), self.sets.get(cell, 0.0)]
        for cell in footprint.sets:
            waits += [self.observed.get(cell, 0.0), self.wrote.get(cell, 0.0)]
        return max(waits)

    def record(self, footprint, finish: float) -> None:
        self.everything = max(self.everything, finish)
        if footprint is None:
            self.top = max(self.top, finish)
            return
        for table, cells in (
            (self.observed, footprint.observes),
            (self.wrote, footprint.adds | footprint.sets),
            (self.sets, footprint.sets),
        ):
            for cell in cells:
                table[cell] = max(table.get(cell, 0.0), finish)
