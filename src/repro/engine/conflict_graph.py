"""The conflict graph's one record: a component's precedence DAG.

A window's conflict graph has its pending operations as nodes and an
edge on every pair that is *not* statically commuting.
:func:`repro.engine.rounds.plan_window` walks its edges once and keeps
no graph: its :class:`~repro.engine.rounds.WindowPlan` holds the
components — the engine-level analogue of the paper's per-account
coordination groups: only operations inside one component ever need an
order relative to each other.

The paper's result is per-*pair*: only non-commuting operation pairs need
a relative order.  A component is therefore not a chain but a *partial*
order — :class:`ComponentDAG` materializes it by orienting every
non-commute edge by submission order (COMMUTE pairs inside the component
carry no edge at all).  Any linear extension of that DAG is serially
equivalent to submission order: two ops without a path between them have
no edge, hence statically commute, and adjacent-transposing commuting
pairs transforms one extension into any other.  The DAG's critical path
and antichain width are exactly the component's intrinsic makespan lower
bound and its exploitable parallelism — the quantities op-granular
scheduling trades on.  The router ships this record and the cluster
node schedules by it; the engine reads the same DAGs off the plan.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ComponentDAG:
    """Precedence DAG of one multi-op conflict-graph component, over
    positions ``0 .. size-1`` in the component's ascending (= submission)
    order — ``WindowPlan.chains[k]`` maps them to window indices, and a
    dispatch unit's ``ops`` hold them in that order.  Built by
    :meth:`~repro.engine.rounds.WindowPlan.chain_dag` for the unit that
    ships it, schedule-ready: every reader takes these fields as they
    are.  All quantities are in operation units, the cost of every op.
    """

    #: Per position, its direct non-commute predecessors, ascending —
    #: every edge oriented from the earlier submission to the later one.
    preds: tuple[tuple[int, ...], ...]
    #: Per position, its bottom level: the longest path to a sink, the
    #: node included — the list scheduler's critical-path-first priority.
    priorities: tuple[int, ...]
    #: Longest chain of non-commuting ops — the component's makespan
    #: lower bound (``size`` when the component is a total order, less
    #: when the conflict structure admits width).
    critical_path: int
    #: Largest antichain wave (nodes of one longest-path depth) — the
    #: intra-component parallelism an op-granular schedule can exploit
    #: (1 = effectively a chain).
    width: int

    @property
    def size(self) -> int:
        return len(self.preds)


class ConflictGraph:
    """Frozen wall-benchmark names: ``benchmarks/wall`` binds them,
    nothing in ``src/`` calls them.  One-line adapters over the plan."""

    @staticmethod
    def build(classifier, ops):
        from repro.engine.rounds import plan_window

        return plan_window(classifier, ops)

    @staticmethod
    def components(plan) -> list[list[int]]:
        return sorted(plan.chains + [[i] for i in plan.singletons])

    @staticmethod
    def component_dags(plan) -> list[ComponentDAG]:
        return [plan.chain_dag(k) for k in range(len(plan.chains))]
