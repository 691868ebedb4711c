"""One window plan, shared by the engine and the cluster.

:func:`plan_window` decides the paper's trichotomy once per window, for
the engine (:class:`~repro.engine.pipeline.PipelinedExecutor`) and the
cluster's router (:func:`~repro.cluster.routing.route_window`) alike:
singletons need no order, chains need only chain order, and only the
contended groups pay for k-consensus (:mod:`repro.sync`).  One function,
one correctness argument; :class:`WindowPlan` is its frozen result.

A window's edges come from one ascending scan by location
(:func:`~repro.objects.footprint.window_preds`: each op finds its earlier
partners through the cells it touches), and one walk over them folds the
plan; no pair that commutes is ever visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.commutativity import PairKind
from repro.engine.conflict_graph import ComponentDAG
from repro.objects.footprint import window_preds

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.classifier import OpClassifier
    from repro.engine.mempool import PendingOp
    from repro.objects.footprint import OpFootprint

_CONFLICT, _READ_ONLY = PairKind.CONFLICT, PairKind.READ_ONLY
#: An edge's kind by the classes of its two ops — unknown footprint (0),
#: read-only (1: no ``adds``, no ``sets``), writing (2).  Edges are exactly
#: the pairs ``static_pair_kind`` does not call COMMUTE, and on those the
#: rule is this table: CONFLICT when a footprint is unknown, else
#: READ_ONLY when either side writes nothing, else CONFLICT.
_KIND_BY_CLASS = (
    (_CONFLICT, _CONFLICT, _CONFLICT),
    (_CONFLICT, _READ_ONLY, _READ_ONLY),
    (_CONFLICT, _READ_ONLY, _CONFLICT),
)


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
    #: Per chain, its DAG's ``(critical_path, width)``.
    shapes: list[tuple[int, int]]
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

    def chain_dag(self, k: int) -> ComponentDAG:
        """``chains[k]``'s precedence DAG over positions in the chain —
        the unit the router ships, and the wall's ``component_dags``."""
        chain, preds, level = self.chains[k], self.preds, self.priorities
        at = {i: position for position, i in enumerate(chain)}
        return ComponentDAG(
            tuple([tuple([at[p] for p in preds[i]]) for i in chain]),
            tuple([level[i] for i in chain]),
            *self.shapes[k],
        )


def plan_window(classifier: OpClassifier, ops: list[PendingOp]) -> WindowPlan:
    """Plan one window.

    Components of the conflict graph are independent: operations in
    different components statically commute, so components run in
    parallel.  Within a multi-operation component (a *chain*) the
    non-commuting pairs keep their submission order — its precedence DAG.
    Singleton components commute with the entire window and run anywhere.

    A chain member is *contended* when it sits on a synchronization-group
    conflict: a CONFLICT edge between *distinct* processes whose
    footprints are unknown or contend on a shared cell
    (``OpFootprint.contends_with``: two enabled spenders of one account,
    approve vs transferFrom on one allowance, one NFT).  Only those can
    ever need total order; same-process conflicts, credit-enables-spend
    races and READ_ONLY pairs are resolved by chain order alone, which
    costs no messages.

    The edges are each op's earlier partners, found by location
    (:func:`~repro.objects.footprint.window_preds`).  One ascending walk
    over them folds each op's depth, the union-find (every root its
    component's smallest index), the READ_ONLY count by the class table
    and the contended set.  A forward walk gives the components, a
    backward one the bottom levels, and each chain's depths its shape
    (:meth:`WindowPlan.chain_dag` builds its DAG where one is read).
    """
    ops = list(ops)
    footprint = classifier.object_type.footprint
    footprints = [footprint(op.pid, op.operation) for op in ops]
    preds = window_preds(footprints)
    n = len(ops)
    classes = [
        0 if fp is None else 2 if fp.adds or fp.sets else 1
        for fp in footprints
    ]
    parent = list(range(n))
    depth = [1] * n
    linked = bytearray(n)  # a root with a later partner
    contended: set[int] = set()
    edges = read_only = 0
    for j, below in enumerate(preds):
        if not below:
            continue
        edges += len(below)
        kind = classes[j]
        kinds, fp, pid = _KIND_BY_CLASS[kind], footprints[j], ops[j].pid
        root = j
        top = 0
        for p in below:
            if depth[p] > top:
                top = depth[p]
            if kinds[classes[p]] is _READ_ONLY:
                read_only += 1
            elif ops[p].pid != pid and (
                not kind
                or (other := footprints[p]) is None
                or other.contends_with(fp)
            ):
                contended.add(p)
                contended.add(j)
            while parent[p] != p:
                parent[p] = p = parent[parent[p]]
            if p < root:
                parent[root] = root = p
            elif root < p:
                parent[p] = root
        depth[j] = top + 1
        linked[root] = 1
    # An unknown footprint pairs with the whole window.
    unknown = classes.count(0)
    classifier.stats.count_window(
        edges - read_only,
        read_only,
        unknown * (n - unknown) + unknown * (unknown - 1) // 2,
    )
    if not edges:
        singles = list(range(n))
        return WindowPlan(ops, footprints, [], singles, [], [], preds, [1] * n)
    # Forward: every parent is smaller than its child, so it already
    # points at its root when the walk reaches the child; a root with a
    # later partner opens its component, a root without one is alone.
    chains: list[list[int]] = []
    singletons: list[int] = []
    group_of: dict[int, list[int]] = {}
    for i in range(n):
        if parent[i] != i:
            parent[i] = root = parent[parent[i]]
            group_of[root].append(i)
        elif linked[i]:
            group_of[i] = group = [i]
            chains.append(group)
        else:
            singletons.append(i)
    # Backward: every op after its successors.
    level = [1] * n
    for i in range(n - 1, 0, -1):
        up = level[i] + 1
        for p in preds[i]:
            if up > level[p]:
                level[p] = up
    shapes = []
    for chain in chains:
        per_depth = [0] * (len(chain) + 1)
        for i in chain:
            per_depth[depth[i]] += 1
        shapes.append((max([depth[i] for i in chain]), max(per_depth)))
    groups = [
        group
        for chain in chains
        if (group := [i for i in chain if i in contended])
    ]
    groups.sort(key=lambda group: group[0])
    return WindowPlan(
        ops, footprints, chains, singletons, groups, shapes, preds, level
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

    def split_sync(self, plan: WindowPlan):
        return plan.chains, plan.singletons, plan.contended_groups

    def split(self, plan: WindowPlan):
        return plan.chains, plan.singletons, sorted(plan.escalated_idx)
