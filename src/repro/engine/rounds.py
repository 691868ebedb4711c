"""One window plan, shared by the engine and the cluster.

:func:`plan_window` decides the paper's trichotomy once per window, for
the engine (:class:`~repro.engine.pipeline.PipelinedExecutor`) and the
cluster's router (:func:`~repro.cluster.routing.route_window`) alike:
singletons need no order, chains need only chain order, and only the
contended groups pay for k-consensus (:mod:`repro.sync`).  One function,
one correctness argument; :class:`WindowPlan` is its frozen result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.conflict_graph import ComponentDAG, ConflictGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.classifier import OpClassifier
    from repro.engine.mempool import PendingOp
    from repro.objects.footprint import OpFootprint


@dataclass(frozen=True, slots=True)
class WindowPlan:
    """What one window's conflict graph decides, by index into ``ops``."""

    ops: list[PendingOp]
    #: The window's static footprints, aligned with ``ops`` (``None`` =
    #: unknown) — its one footprint pass: placement, the frontier, the
    #: cluster's routing and the sync planner all read them here.
    footprints: list[OpFootprint | None]
    #: Multi-op components (ascending indices), ordered by first index.
    chains: list[list[int]]
    #: Indices whose component is themselves: they commute with the window.
    singletons: list[int]
    #: The contended subset of each chain that has one, in submission
    #: order, ordered by first index — the unit the tiered sync layer
    #: sizes teams for.
    contended_groups: list[list[int]]
    #: Per-chain precedence DAGs over positions in the chain:
    #: ``dags[k].size == len(chains[k])``.
    dags: list[ComponentDAG]
    #: The DAGs over window indices, window-aligned, for the engine's
    #: scheduler: each op's direct predecessors and its bottom level.
    preds: list
    priorities: list[int]

    @property
    def escalated_idx(self) -> list[int]:
        return [i for group in self.contended_groups for i in group]

    @property
    def chained_ops(self) -> int:
        return sum(len(chain) for chain in self.chains)


def plan_window(classifier: OpClassifier, ops: list[PendingOp]) -> WindowPlan:
    """Plan one window.

    Components of the conflict graph are independent: operations in
    different components statically commute, so components run in
    parallel.  Within a multi-operation component (a *chain*) the
    non-commuting pairs keep their submission order — its precedence DAG.
    Singleton components commute with the entire window and run anywhere.

    A chain member is *contended* when it sits on a synchronization-group
    conflict: a CONFLICT edge between *distinct* processes contending on a
    shared cell (two enabled spenders of one account, approve vs
    transferFrom on one allowance, one NFT) — see
    ``OpClassifier.needs_consensus``.  Only those can ever need total
    order; same-process conflicts, credit-enables-spend races and
    READ_ONLY pairs are resolved by chain order alone, which costs no
    messages.
    """
    return _plan(ConflictGraph.build(classifier, ops))


def _plan(graph: ConflictGraph) -> WindowPlan:
    components = graph.components()
    chains = [c for c in components if len(c) > 1]
    singletons = [c[0] for c in components if len(c) == 1]
    contended = graph.contended
    groups = [
        group
        for chain in chains
        if (group := [i for i in chain if i in contended])
    ]
    groups.sort(key=lambda group: group[0])
    dags = graph.component_dags()
    priorities = [1] * len(graph.ops)
    for chain, dag in zip(chains, dags):
        for i, level in zip(chain, dag.priorities):
            priorities[i] = level
    return WindowPlan(
        graph.ops,
        graph.footprints,
        chains,
        singletons,
        groups,
        dags,
        graph._preds,
        priorities,
    )


class WallAdapters:
    """Bound by ``benchmarks/wall``; deleted by ROADMAP item 1.  Nothing
    in ``src/`` calls these one-line adapters over the plan."""

    def __init__(self, classifier, sync=None, object_type=None) -> None:
        self.classifier = classifier
        self.sync = sync
        self.object_type = object_type

    def drain(self, mempool, window: int, index: int):
        return mempool.pop_window(window) or None

    def classify(self, ops) -> WindowPlan:
        return plan_window(self.classifier, ops)

    def synchronize(self, plan: WindowPlan, state=None):
        return self.sync.order_round(plan, state, self.object_type)

    def split_sync(self, graph: ConflictGraph):
        plan = _plan(graph)
        return plan.chains, plan.singletons, plan.contended_groups

    def split(self, graph: ConflictGraph):
        plan = _plan(graph)
        return plan.chains, plan.singletons, sorted(plan.escalated_idx)
