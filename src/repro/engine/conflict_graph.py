"""Conflict graph over a mempool window.

Nodes are pending operations; an edge carries the pair's classification
whenever the pair is *not* statically commuting.  :meth:`ConflictGraph.build`
is the one place a window's edges are made, and it walks the window twice:
once over the location index's candidates (edges, kinds, the contended
set) and once over the edges (components and each op's DAG
predecessors).  ``components()`` exposes the synchronization groups — the
engine-level analogue of the paper's per-account coordination groups:
only operations inside one component ever need an order relative to each
other.

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
scheduling trades on.  ``component_dags()`` derives them, with the bottom
levels the scheduler ranks by, once per chain and over positions in the
chain: the engine, the router and the cluster node read the same record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.commutativity import PairKind
from repro.engine.classifier import OpClassifier
from repro.engine.mempool import PendingOp
from repro.objects.footprint import OpFootprint, conflict_candidates

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
class ComponentDAG:
    """Precedence DAG of one multi-op conflict-graph component, over
    positions ``0 .. size-1`` in the component's ascending (= submission)
    order — ``WindowPlan.chains[k]`` maps them to window indices, and a
    dispatch unit's ``ops`` hold them in that order.  Built once, by
    :meth:`ConflictGraph.component_dags`, schedule-ready: every reader
    takes these fields as they are.  All quantities are in operation
    units, the cost of every op.
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


@dataclass
class ConflictGraph:
    """Pairwise non-commute structure of one window (indices into ``ops``),
    and everything :meth:`build` folds out of it in the same two walks:
    the components and each op's DAG predecessors, from which
    :meth:`component_dags` packages the positional DAGs."""

    ops: list[PendingOp]
    #: ``(i, j) -> kind`` with ``i < j``, in ascending key order; only
    #: non-COMMUTE pairs are stored.
    edges: dict[tuple[int, int], PairKind]
    #: The window's static footprints, aligned with ``ops`` — the one
    #: footprint pass of the window: splitting, placement, the frontier
    #: and the cluster's routing all read them here.
    footprints: list[OpFootprint | None]
    #: Endpoints of the CONFLICT edges whose pair ``needs_consensus``.
    contended: set[int]
    #: Connected components (ascending indices), ordered by first index.
    _components: list[list[int]] = field(repr=False)
    #: Direct DAG predecessors per index, ascending (empty for none) —
    #: the edge keys ascend, so they are appended in order.
    _preds: list = field(repr=False)

    @classmethod
    def build(
        cls, classifier: OpClassifier, ops: list[PendingOp]
    ) -> "ConflictGraph":
        """The window's graph, its edges found through the location index
        (:func:`~repro.objects.footprint.conflict_candidates`)."""
        ops = list(ops)
        footprint = classifier.object_type.footprint
        footprints = [footprint(op.pid, op.operation) for op in ops]
        later = conflict_candidates(footprints)
        n = len(ops)
        if not later:
            singles = [[i] for i in range(n)]
            return cls(ops, {}, footprints, set(), singles, [()] * n)
        edges: dict[tuple[int, int], PairKind] = {}
        contended: set[int] = set()
        # Walk 1, over the ops with a later partner (every candidate is an
        # edge): the ascending edge dict and the contended set.
        classes = [
            0 if fp is None else 2 if fp.adds or fp.sets else 1
            for fp in footprints
        ]
        needs_consensus = classifier.needs_consensus
        read_only = 0
        for i in sorted(later):
            kinds = _KIND_BY_CLASS[classes[i]]
            first, fp = ops[i], footprints[i]
            for j in sorted(later[i]):
                edges[(i, j)] = kind = kinds[classes[j]]
                if kind is _READ_ONLY:
                    read_only += 1
                elif needs_consensus(first, ops[j], (fp, footprints[j])):
                    contended.add(i)
                    contended.add(j)
        # An unknown footprint pairs with the whole window.
        unknown = classes.count(0)
        classifier.stats.count_window(
            len(edges) - read_only,
            read_only,
            unknown * (n - unknown) + unknown * (unknown - 1) // 2,
        )
        # Walk 2, one fold over the edges: predecessors and union-find,
        # every root its component's smallest index.
        parent = list(range(n))
        preds: list = [[] for _ in range(n)]

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for a, b in edges:
            preds[b].append(a)
            ra, rb = find(a), find(b)
            if ra < rb:
                parent[rb] = ra
            elif rb < ra:
                parent[ra] = rb
        # A root with no later partner has no edge at all (its edges
        # would lead to later members); any other root opens its
        # component, before the ascending walk reaches the rest of it.
        components: list[list[int]] = []
        group_of: dict[int, list[int]] = {}
        for i in range(n):
            if parent[i] != i:
                group_of[find(i)].append(i)
            elif i in later:
                group_of[i] = group = [i]
                components.append(group)
            else:
                components.append([i])
        return cls(ops, edges, footprints, contended, components, preds)

    # ------------------------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components over non-commute edges (sorted indices),
        ordered by their first index.

        Singleton components are operations free to run in any lane; larger
        components are the window's synchronization groups.  Computed once,
        by :meth:`build`; every call returns fresh lists.
        """
        return [list(component) for component in self._components]

    def component_dags(self) -> list[ComponentDAG]:
        """Precedence DAGs of the multi-op components, in component order:
        aligned with :func:`repro.engine.rounds.plan_window`'s chains,
        ``dags[k].size == len(chains[k])``.  Each is folded from the
        sorted predecessor lists :meth:`build` kept, without walking the
        edges: one forward pass relabels them to positions and takes the
        depths (critical path, width), one backward pass the bottom
        levels.  Submission order is a topological order, so the forward
        pass meets a node after its predecessors, the backward one after
        its successors."""
        preds_of = self._preds
        dags: list[ComponentDAG] = []
        for component in self._components:
            n = len(component)
            if n == 1:
                continue
            at = {i: k for k, i in enumerate(component)}
            preds: list[tuple[int, ...]] = []
            depth: list[int] = []
            per_depth = [0] * (n + 1)
            for i in component:
                below = tuple([at[p] for p in preds_of[i]])
                d = 1
                for p in below:
                    if depth[p] >= d:
                        d = depth[p] + 1
                preds.append(below)
                depth.append(d)
                per_depth[d] += 1
            level = [1] * n
            for k in range(n - 1, 0, -1):
                up = level[k] + 1
                for p in preds[k]:
                    if up > level[p]:
                        level[p] = up
            dags.append(
                ComponentDAG(
                    tuple(preds), tuple(level), max(depth), max(per_depth)
                )
            )
        return dags
