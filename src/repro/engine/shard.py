"""Shard planning: schedule a window's operations onto parallel lanes.

The scheduler hands the planner a window split into conflict-graph
components:

* **chains** — the multi-operation components.  Only a chain's
  non-commuting pairs need an order, and the component's
  :class:`~repro.engine.conflict_graph.ComponentDAG` carries exactly
  those constraints;
* **singletons** — operations commuting with everything else in the
  window.  They can run anywhere and backfill idle lanes.

The planner schedules *operations*, not components, with a
critical-path-first list scheduler (highest bottom level first,
earliest-available lane), so a component's makespan is its critical path,
not its op count.  Callers apply the placements in ascending
``(start, seq)`` order — a linear extension of every component DAG —
because lane-major application is unsound once one chain spans lanes.
Any linear extension is serially equivalent to submission order: ops
without a DAG path have no non-commute edge and may be transposed freely.

The planner never consults mutable state, so the same window on the same
lane timeline always gets the same placements — part of the engine's
determinism guarantee.  :func:`dag_list_schedule` is the only list
scheduler: the engine's rolling timeline and the cluster node's unit
executor both place every op through it.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.engine.conflict_graph import ComponentDAG
from repro.engine.mempool import PendingOp
from repro.errors import EngineError

#: Knuth's multiplicative hash constant; stable across runs and platforms
#: (unlike ``hash(str)``, which is randomized per process).
_MIX = 2654435761


def stable_account_hash(account: int) -> int:
    return (account * _MIX) & 0xFFFFFFFF


def dag_list_schedule(
    seqs: list[int],
    preds: list[tuple[int, ...]],
    priorities: list[int],
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
    Times stay integers when every input is an integer — the planner's
    operation-unit invariant at the default ``cost=1``.

    **Insertion/backfill:** when a floored task starts past a lane's free
    time (its sync lane or frontier holds it back), the idle interval it
    leaves behind is remembered as a *gap*, and later ready tasks slot
    into gaps they fit, so a deep-priority op does not strand a lane idle
    that a ready singleton could fill.  Gap placement is sound: the gap
    predates the lane's current tail, and every precedence and floor
    constraint is still honored through ``est``.

    Returns ``(start, finish, lane)`` per task.  Deterministic: the heap
    orders by (priority desc, seq), the lane choice by (start, free, id),
    and gaps are scanned in ascending start order.
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
    #: Per lane: idle ``[start, end)`` intervals behind its free time,
    #: ascending (this call's own making — a persistent caller's lanes
    #: start gapless, which keeps incremental scheduling conservative).
    gaps: list[list[tuple[float, float]]] = [[] for _ in lane_free]
    scheduled = 0
    while ready:
        _, _, i = heapq.heappop(ready)
        best: tuple | None = None
        for lane_id in range(len(lane_free)):
            placed_in: int | None = None
            start = max(lane_free[lane_id], est[i])
            # Gaps are ascending, so the first fitting gap is this lane's
            # earliest feasible start — and any fitting gap beats the tail.
            for gap_index, (gap_start, gap_end) in enumerate(gaps[lane_id]):
                slot = max(gap_start, est[i])
                if slot + cost <= gap_end:
                    start, placed_in = slot, gap_index
                    break
            key = (start, lane_free[lane_id], lane_id)
            if best is None or key < best[0]:
                best = (key, lane_id, placed_in)
        assert best is not None
        (start, _, lane), _, gap_index = best
        finish = start + cost
        if gap_index is not None:
            gap_start, gap_end = gaps[lane].pop(gap_index)
            # Residual idle slivers stay fillable (sub-intervals of the
            # old gap, so the list stays ascending in place).
            if finish < gap_end:
                gaps[lane].insert(gap_index, (finish, gap_end))
            if gap_start < start:
                gaps[lane].insert(gap_index, (gap_start, start))
        else:
            if start > lane_free[lane]:
                gaps[lane].append((lane_free[lane], start))
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
    chains: list[list[PendingOp]],
    singletons: list[PendingOp],
    dags: list[ComponentDAG],
    lane_free: list,
    floor: Callable[[PendingOp], float] | None = None,
    cost: float = 1,
) -> tuple[list[PendingOp], list[tuple]]:
    """Schedule ops (not components) with critical-path-first listing.

    Chain ops carry their DAG precedence constraints and their bottom
    level as priority, so the longest remaining dependency chains start
    first; singletons (bottom level 1) backfill.  ``lane_free`` is a live
    lane timeline mutated in place (its length is the lane count) and
    ``floor(op)`` an external earliest start per op (classification time,
    sync-lane completion, cross-window frontier; ``None`` = no floor), so
    callers with persistent lanes (the engine's rolling timeline, the
    cluster node's unit executor) schedule incrementally.  Returns the
    task list and its ``(start, finish, lane)`` placements.
    """
    if len(dags) != len(chains):
        raise EngineError("need one precedence DAG per chain")
    ops: list[PendingOp] = []
    seqs: list[int] = []
    preds: list[tuple[int, ...]] = []
    priorities: list[int] = []
    for chain, dag in zip(chains, dags):
        if len(chain) != len(dag.nodes):
            raise EngineError("chain and its DAG disagree on size")
        base = len(ops)
        position = {node: k for k, node in enumerate(dag.nodes)}
        bottom = dag.bottom_levels()
        for k, op in enumerate(chain):
            node = dag.nodes[k]
            ops.append(op)
            seqs.append(op.seq)
            preds.append(tuple(base + position[p] for p in dag.preds[node]))
            priorities.append(bottom[node])
    for op in singletons:
        ops.append(op)
        seqs.append(op.seq)
        preds.append(())
        priorities.append(1)
    placed = dag_list_schedule(
        seqs,
        preds,
        priorities,
        lane_free,
        floors=[floor(op) for op in ops] if floor is not None else None,
        cost=cost,
    )
    return ops, placed
