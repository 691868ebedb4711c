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

from repro.analysis.commutativity import PairKind
from repro.engine.conflict_graph import ComponentDAG
from repro.objects.footprint import conflict_candidates

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.classifier import OpClassifier
    from repro.engine.mempool import PendingOp
    from repro.objects.footprint import OpFootprint

_CONFLICT, _READ_ONLY = PairKind.CONFLICT, PairKind.READ_ONLY
#: A candidate's kind by the classes of its two ops — unknown footprint
#: (0), read-only (1: no ``adds``, no ``sets``), writing (2).  Candidates
#: are exactly the pairs ``static_pair_kind`` does not call COMMUTE, and on
#: those the rule is this table: CONFLICT when a footprint is unknown, else
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

    The edges are the location index's candidates (:func:`~repro.
    objects.footprint.conflict_candidates`); one ascending walk over them
    folds each op's predecessors, the union-find, the READ_ONLY count and
    the contended set.  Submission order is topological, so a forward
    walk over the indices gives the components and depths, a backward
    one the bottom levels, and the chains' positional DAGs read those.
    """
    ops = list(ops)
    footprint = classifier.object_type.footprint
    footprints = [footprint(op.pid, op.operation) for op in ops]
    later = conflict_candidates(footprints)
    n = len(ops)
    if not later:
        singles = list(range(n))
        empty = [()] * n
        return WindowPlan(ops, footprints, [], singles, [], [], empty, [1] * n)
    classes = [
        0 if fp is None else 2 if fp.adds or fp.sets else 1
        for fp in footprints
    ]
    needs_consensus = classifier.needs_consensus
    parent = list(range(n))
    preds: list = [[] for _ in range(n)]
    contended: set[int] = set()
    edges = read_only = 0

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    # Every candidate is an edge; ``i`` ascends, so each op's predecessors
    # are appended in order, and every root is its component's smallest
    # index.
    for i in sorted(later):
        kinds = _KIND_BY_CLASS[classes[i]]
        first, fp = ops[i], footprints[i]
        edges += len(later[i])
        root = find(i)
        for j in later[i]:
            preds[j].append(i)
            if kinds[classes[j]] is _READ_ONLY:
                read_only += 1
            elif needs_consensus(first, ops[j], (fp, footprints[j])):
                contended.add(i)
                contended.add(j)
            other = find(j)
            if root < other:
                parent[other] = root
            elif other < root:
                parent[root] = root = other
    # An unknown footprint pairs with the whole window.
    unknown = classes.count(0)
    classifier.stats.count_window(
        edges - read_only,
        read_only,
        unknown * (n - unknown) + unknown * (unknown - 1) // 2,
    )
    # Forward: a root with a later partner opens its component before the
    # walk reaches the rest of it; a root without one has no edge at all.
    chains: list[list[int]] = []
    singletons: list[int] = []
    group_of: dict[int, list[int]] = {}
    at = [0] * n
    depth = [1] * n
    for i in range(n):
        if parent[i] != i:
            group = group_of[find(i)]
            at[i] = len(group)
            group.append(i)
            depth[i] = 1 + max([depth[p] for p in preds[i]], default=0)
        elif i in later:
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
    dags = []
    for chain in chains:
        per_depth = [0] * (len(chain) + 1)
        for i in chain:
            per_depth[depth[i]] += 1
        dags.append(
            ComponentDAG(
                tuple([tuple([at[p] for p in preds[i]]) for i in chain]),
                tuple([level[i] for i in chain]),
                max([depth[i] for i in chain]),
                max(per_depth),
            )
        )
    groups = [
        group
        for chain in chains
        if (group := [i for i in chain if i in contended])
    ]
    groups.sort(key=lambda group: group[0])
    return WindowPlan(
        ops, footprints, chains, singletons, groups, dags, preds, level
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
