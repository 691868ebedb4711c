"""Lane scheduling: place a window's operations onto parallel lanes.

The window arrives split into conflict-graph components (its
:class:`~repro.engine.rounds.WindowPlan`):

* **chains** — the multi-operation components.  Only a chain's
  non-commuting pairs need an order, and the component's
  :class:`~repro.engine.conflict_graph.ComponentDAG` carries exactly
  those constraints;
* **singletons** — operations commuting with everything else in the
  window.  They can run anywhere and backfill idle lanes — and cost the
  scheduler one ``min`` over the lane tails each: no predecessor, no
  priority to compute, and no lane is looked at one by one unless it
  holds an idle gap.

The scheduler places *operations*, not components, with a
critical-path-first list scheduler (highest bottom level first,
earliest-available lane), so a component's makespan is its critical path,
not its op count.

**One apply order.**  The engine applies each window, and a cluster node
each unit, in submission order, whatever order the placed starts take:
a linear extension of every DAG edge and every cross-window frontier
dependency, since each runs from an earlier submission to a later one.
Ops that no such edge joins statically commute and may be transposed.
So a placement only sizes virtual time, and the tests' placement
monitors hold it to those edges (``tests/engine/placement_tap.py``,
``tests/cluster/node_tap.py``).

**The static order.**  :func:`dag_list_schedule` is the only list
scheduler: the engine's rolling timeline (a window's tasks are its
indices, with the plan's window-aligned predecessors and priorities) and
a cluster node's DAG units (positions in one
:class:`~repro.engine.conflict_graph.ComponentDAG`) place every DAG op
through it, ranked by the bottom levels
:func:`~repro.engine.rounds.plan_window` built — singletons at 1.  A
bottom level ranks each predecessor strictly above its successors, so
the scheduler places tasks in one sorted order, by priority descending
and then index (a task's index is its submission rank): the first
unplaced task is always ready, the task a ready heap would pop.
:func:`lane_fill` places a node's edge-free unit in one pass: each op, in
position order, takes the first least-free lane at ``max(ready, free)``.
Every op costs one unit, so that is the list scheduler's placement of
edge-free ops on one floor (the static order is position order; the only
gap the fill opens ends at the floor, and no op fits before it).
Neither consults mutable state: the same window on the same lane
timeline always gets the same placements, part of the engine's
determinism guarantee.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.errors import EngineError

#: Knuth's multiplicative hash constant; stable across runs and platforms
#: (unlike ``hash(str)``, which is randomized per process).
_MIX = 2654435761


def stable_account_hash(account: int) -> int:
    """The account → shard hash of :mod:`repro.cluster.sharding`."""
    return (account * _MIX) & 0xFFFFFFFF


def dag_list_schedule(
    preds: Sequence[tuple[int, ...]],
    priorities: Sequence[int],
    lane_free: list[float],
    floors: list[float] | None = None,
    lane_prev: list[float] | None = None,
) -> list[tuple[float, float, int]]:
    """Critical-path-first list scheduling of unit-cost tasks onto lanes.

    ``preds[i]`` are task indices that must finish before task ``i``
    starts; ``priorities[i]`` is its bottom level (ties broken by
    index, i.e. submission order); ``floors[i]`` is an external
    earliest-start (sync-lane completion, cross-window frontier); every
    task runs for one unit.  Each task picks the lane giving the earliest
    start.  ``lane_free`` is mutated in place so callers with a
    persistent lane timeline (the cluster node) schedule incrementally.
    Times stay integers when every input is an integer — the scheduler's
    operation-unit invariant.

    **Insertion/backfill:** when a floored task starts past a lane's free
    time (its sync lane or frontier holds it back), the idle interval it
    leaves behind is remembered as a *gap*, and later ready tasks slot
    into gaps they fit, so a deep-priority op does not strand a lane idle
    that a ready singleton could fill.  Gap placement is sound: the gap
    predates the lane's current tail, and every precedence and floor
    constraint is still honored through ``est``.  ``horizon`` bounds every
    open gap's end (it rises as gaps open, a split gap's slivers end no
    later, and it is −∞ once none is open); a task with ``est + 1 >
    horizon`` skips the gap walk, exactly: any slot is ``≥ est`` and float
    addition is monotone, so no gap can fit it.  (A node's DAG unit
    floors all its ops at one ``ready``, so every gap it opens ends there.)

    Returns ``(start, finish, lane)`` per task.  Deterministic: tasks are
    placed in the module docstring's static order, and ``est`` is the
    largest of the floor and the predecessors' finishes, folded in
    ``preds[i]`` order with no sort: of equal values (an int finish may
    tie a float) the floor wins, then the predecessor placed first, as a
    fold in placement order would keep.  The first predecessor in
    ``preds[i]`` still unplaced — a cycle, or priorities against the
    rule — raises.  The lane choice is by (start, free, id) over every
    lane.  That key needs no scan of the lanes: among lane *tails* it is
    smallest on the first lane of least free time (``start = max(free,
    est)`` grows with ``free``), and a lane's fitting gap — gaps are
    ascending, so its first — starts before its tail, so only lanes
    holding a gap are looked at one by one.

    ``lane_prev``, when given, receives per task the finish of the task
    before it on its lane (or the lane's carried-in free time).  A task
    that leaves an idle sliver right before it reads, at the end, the
    start of the sliver left ending at its start, or its own start.
    """
    n = len(preds)
    if floors is None:
        floors = [0.0] * n
    out: list[tuple[float, float, int] | None] = [None] * n
    #: Lane -> its idle ``[start, end)`` intervals behind its free time,
    #: ascending; only lanes holding one have an entry (this call's own
    #: making — a persistent caller's lanes start gapless, which keeps
    #: incremental scheduling conservative).
    gaps: dict[int, list[tuple[float, float]]] = {}
    horizon = -math.inf
    #: Tasks placed past their lane's idle time (``lane_prev`` only).
    opened: list[int] = []
    # ``reverse`` keeps the sort stable: equal priorities stay by index.
    for i in sorted(range(n), key=priorities.__getitem__, reverse=True):
        est, first = floors[i], -1  # ``est``'s predecessor; -1: the floor
        for p in preds[i]:
            placed = out[p]
            if placed is None:
                why = "a cycle, or priorities not ranking it first"
                raise EngineError(f"task {i}: predecessor {p} unplaced, {why}")
            if placed[1] > est or (
                placed[1] == est
                and first >= 0
                and (priorities[p], first) > (priorities[first], p)
            ):
                est, first = placed[1], p
        free = min(lane_free)
        lane = lane_free.index(free)
        start = est if est > free else free
        gap_index: int | None = None
        if est + 1 <= horizon:
            best = (start, free, lane)
            for lane_id, idle in gaps.items():
                for k, (gap_start, gap_end) in enumerate(idle):
                    slot = est if est > gap_start else gap_start
                    if slot + 1 <= gap_end:
                        key = (slot, lane_free[lane_id], lane_id)
                        if key < best:
                            best, start, lane, gap_index = key, slot, lane_id, k
                        break
        finish = start + 1
        if gap_index is not None:
            idle = gaps[lane]
            gap_start, gap_end = idle.pop(gap_index)
            # Residual idle slivers stay fillable (sub-intervals of the
            # old gap, so the list stays ascending in place).
            if finish < gap_end:
                idle.insert(gap_index, (finish, gap_end))
            if gap_start < start:
                idle.insert(gap_index, (gap_start, start))
            if not idle:
                del gaps[lane]
                if not gaps:
                    horizon = -math.inf
            free = gap_start  # where the idle time before it began
        else:
            if start > free:
                gaps.setdefault(lane, []).append((free, start))
                horizon = max(horizon, start)
            lane_free[lane] = finish
        out[i] = (start, finish, lane)
        if lane_prev is not None:
            lane_prev[i] = free
            if start > free:
                opened.append(i)
    if opened:
        # Every idle interval behind a lane's tail is one of its gaps.
        ends = {(lane, b): a for lane, idle in gaps.items() for a, b in idle}
        for i in opened:
            start, _, lane = out[i]  # type: ignore[misc]
            lane_prev[i] = ends.get((lane, start), start)  # type: ignore[index]
    return out  # type: ignore[return-value]


def lane_fill(n: int, lane_free: list, ready: float) -> list:
    """The module docstring's lane fill; mutates ``lane_free`` in place."""
    placed = []
    for _ in range(n):
        free = min(lane_free)
        lane = lane_free.index(free)
        start = ready if ready > free else free
        finish = lane_free[lane] = start + 1
        placed.append((start, finish, lane))
    return placed
