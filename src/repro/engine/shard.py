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
not its op count.  The engine applies each window in submission order; a
cluster node applies a unit in ascending ``(start, position)`` order, a
linear extension of its DAG (lane-major application is unsound once one
chain spans lanes).  Any linear extension is serially equivalent to
submission order: ops without a DAG path commute and may be transposed.

The scheduler never consults mutable state, so the same window on the same
lane timeline always gets the same placements — part of the engine's
determinism guarantee.  :func:`dag_list_schedule` is the only list
scheduler: the engine's rolling timeline and the cluster node's unit
executor both place every op through it, reading each DAG's positional
``preds`` and ``priorities`` as :meth:`ConflictGraph.component_dags
<repro.engine.conflict_graph.ConflictGraph.component_dags>` built them.
The engine concatenates a window's DAGs in :func:`dag_schedule`; a node
runs one DAG — or edge-free ops — per unit and passes its fields as they
are.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

from repro.engine.conflict_graph import ComponentDAG
from repro.errors import EngineError

#: Knuth's multiplicative hash constant; stable across runs and platforms
#: (unlike ``hash(str)``, which is randomized per process).
_MIX = 2654435761


def stable_account_hash(account: int) -> int:
    """The account → shard hash of :mod:`repro.cluster.sharding`."""
    return (account * _MIX) & 0xFFFFFFFF


def dag_list_schedule(
    seqs: Sequence[int],
    preds: Sequence[tuple[int, ...]],
    priorities: Sequence[int],
    lane_free: list[float],
    floors: list[float] | None = None,
    cost: float = 1,
) -> list[tuple[float, float, int]]:
    """Critical-path-first list scheduling of equal-cost tasks onto lanes.

    ``preds[i]`` are task indices that must finish before task ``i``
    starts; ``priorities[i]`` is its bottom level (ties broken by
    ``seqs[i]``, i.e. submission order); ``floors[i]`` is an external
    earliest-start (sync-lane completion, cross-window frontier); every
    task runs for ``cost``.  Each task picks the lane giving the earliest
    start.  ``lane_free`` is mutated in place so callers with a
    persistent lane timeline (the cluster node) schedule incrementally.
    Times stay integers when every input is an integer — the scheduler's
    operation-unit invariant at the default ``cost=1``.

    **Insertion/backfill:** when a floored task starts past a lane's free
    time (its sync lane or frontier holds it back), the idle interval it
    leaves behind is remembered as a *gap*, and later ready tasks slot
    into gaps they fit, so a deep-priority op does not strand a lane idle
    that a ready singleton could fill.  Gap placement is sound: the gap
    predates the lane's current tail, and every precedence and floor
    constraint is still honored through ``est``.  ``horizon`` bounds every
    open gap's end (it rises as gaps open, a split gap's slivers end no
    later, and it is −∞ once none is open); a task with ``est + cost >
    horizon`` skips the gap walk, exactly: any slot is ``≥ est`` and float
    addition is monotone, so no gap can fit it.  (A node's residual unit
    floors all its ops at one ``ready``, so every gap it opens ends there.)

    Returns ``(start, finish, lane)`` per task.  Deterministic: the heap
    orders by (priority desc, seq) and the lane choice by (start, free,
    id) over every lane.  That key needs no scan of the lanes: among lane
    *tails* it is smallest on the first lane of least free time (``start
    = max(free, est)`` grows with ``free``), and a lane's fitting gap —
    gaps are ascending, so its first — starts before its tail, so only
    lanes holding a gap are looked at one by one.
    """
    n = len(seqs)
    succs: list[list[int]] = [[] for _ in range(n)]
    missing = [0] * n
    for i, below in enumerate(preds):
        missing[i] = len(below)
        for p in below:
            succs[p].append(i)
    est = list(floors) if floors is not None else [0.0] * n
    ready = [(-priorities[i], seqs[i], i) for i in range(n) if not missing[i]]
    heapq.heapify(ready)
    out: list[tuple[float, float, int] | None] = [None] * n
    #: Lane -> its idle ``[start, end)`` intervals behind its free time,
    #: ascending; only lanes holding one have an entry (this call's own
    #: making — a persistent caller's lanes start gapless, which keeps
    #: incremental scheduling conservative).
    gaps: dict[int, list[tuple[float, float]]] = {}
    horizon = -math.inf
    scheduled = 0
    while ready:
        _, _, i = heapq.heappop(ready)
        earliest = est[i]
        free = min(lane_free)
        lane = lane_free.index(free)
        start = earliest if earliest > free else free
        gap_index: int | None = None
        if earliest + cost <= horizon:
            best = (start, free, lane)
            for lane_id, idle in gaps.items():
                for k, (gap_start, gap_end) in enumerate(idle):
                    slot = earliest if earliest > gap_start else gap_start
                    if slot + cost <= gap_end:
                        key = (slot, lane_free[lane_id], lane_id)
                        if key < best:
                            best, start, lane, gap_index = key, slot, lane_id, k
                        break
        finish = start + cost
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
        else:
            if start > free:
                gaps.setdefault(lane, []).append((free, start))
                horizon = max(horizon, start)
            lane_free[lane] = finish
        out[i] = (start, finish, lane)
        scheduled += 1
        for s in succs[i]:
            if finish > est[s]:
                est[s] = finish
            missing[s] -= 1
            if not missing[s]:
                heapq.heappush(ready, (-priorities[s], seqs[s], s))
    if scheduled != n:
        raise EngineError("dependency cycle in DAG schedule")
    return out  # type: ignore[return-value]


def dag_schedule(
    chains: list[list[int]],
    dags: list[ComponentDAG],
    singletons: list[int],
    lane_free: list,
    floors: list[float] | None = None,
    cost: float = 1,
) -> tuple[list[int], list[tuple[int, ...]], list[tuple]]:
    """Schedule a window's ops (not its components) with
    critical-path-first listing.

    Tasks are the ``chains``' window indices, chain by chain, then the
    ``singletons`` — indices ascend in submission order, so they are the
    tie-break too.  ``dags[k]`` is ``chains[k]``'s DAG over positions in
    the chain; its ``preds`` shift by the chain's first task position and
    its ``priorities`` (bottom levels) are taken as they are, so the
    longest remaining dependency chains start first; singletons (bottom
    level 1) backfill.  ``lane_free`` is a live lane timeline mutated in
    place (its length is the lane count) and ``floors[i]`` an external
    earliest start for window index ``i`` (classification time, sync-lane
    completion, cross-window frontier; ``None`` = no floor), so the
    engine's rolling timeline schedules incrementally.  Returns,
    task-aligned: the window index of each task, its predecessors as task
    positions, and its ``(start, finish, lane)`` placement.
    """
    order: list[int] = []
    preds: list[tuple[int, ...]] = []
    priorities: list[int] = []
    for chain, dag in zip(chains, dags, strict=True):
        offset = len(order)
        order.extend(chain)
        priorities.extend(dag.priorities)
        preds.extend(tuple(p + offset for p in below) for below in dag.preds)
    order.extend(singletons)
    preds.extend([()] * len(singletons))
    priorities.extend([1] * len(singletons))
    placed = dag_list_schedule(
        order,
        preds,
        priorities,
        lane_free,
        floors=[floors[i] for i in order] if floors is not None else None,
        cost=cost,
    )
    return order, preds, placed
