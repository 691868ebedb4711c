"""Conflict graph over a mempool window.

Nodes are pending operations; an edge carries the pair's classification
whenever the pair is *not* statically commuting.  :meth:`ConflictGraph.build`
is the one place a window's edges are made, and it walks the window twice:
once over the location index's candidates (edges, kinds, the contended
set) and once over the edges (components and each op's DAG neighbours).
``components()`` exposes the synchronization groups — the engine-level
analogue of the paper's per-account coordination groups: only operations
inside one component ever need an order relative to each other.

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
scheduling trades on.
"""

from __future__ import annotations

from collections import defaultdict
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
    """Precedence DAG of one multi-op conflict-graph component.

    ``nodes`` are window indices in ascending (= submission) order;
    ``preds``/``succs`` map each node to its direct non-commute
    predecessors/successors, every edge oriented from the earlier
    submission to the later one.  All derived quantities are in operation
    units (unit op cost); the scheduler scales by ``op_cost`` itself.
    """

    nodes: tuple[int, ...]
    preds: dict[int, tuple[int, ...]]
    succs: dict[int, tuple[int, ...]]

    @classmethod
    def over(cls, component: list[int], edges) -> "ComponentDAG":
        """Build the DAG for ``component`` from a window's edge dict."""
        members = set(component)
        preds: dict[int, list[int]] = {i: [] for i in component}
        succs: dict[int, list[int]] = {i: [] for i in component}
        for a, b in edges:
            if a in members and b in members:
                # Edge keys are (i, j) with i < j — already submission-
                # oriented; COMMUTE pairs were never stored.
                preds[b].append(a)
                succs[a].append(b)
        return cls(
            nodes=tuple(sorted(component)),
            preds={i: tuple(sorted(found)) for i, found in preds.items()},
            succs={i: tuple(sorted(found)) for i, found in succs.items()},
        )

    def positional(self) -> "ComponentDAG":
        """The same DAG over positions in ``nodes`` — how a holder of the
        component's ops alone (a cluster dispatch unit) reads it.
        Positions ascend with the indices: sorted tuples stay sorted."""
        at = {node: k for k, node in enumerate(self.nodes)}
        return ComponentDAG(
            tuple(range(self.size)),
            {at[i]: tuple(at[p] for p in ps) for i, ps in self.preds.items()},
            {at[i]: tuple(at[s] for s in ss) for i, ss in self.succs.items()},
        )

    # ------------------------------------------------------------------

    def depths(self) -> dict[int, int]:
        """Longest-path depth from the component's sources (sources = 0).

        Submission order is a topological order (edges point from lower to
        higher index), so one ascending pass suffices.
        """
        depth: dict[int, int] = {}
        for i in self.nodes:
            depth[i] = 1 + max((depth[p] for p in self.preds[i]), default=-1)
        return depth

    def bottom_levels(self) -> dict[int, int]:
        """Longest path from each node to a sink, the node included — the
        critical-path-first priority of the list scheduler."""
        level: dict[int, int] = {}
        for i in reversed(self.nodes):
            level[i] = 1 + max((level[s] for s in self.succs[i]), default=0)
        return level

    def levels(self) -> list[list[int]]:
        """Antichain waves: nodes grouped by longest-path depth.

        Same-depth nodes admit no path between them (a path strictly
        increases depth), so each level is an antichain — ops free to run
        lane-parallel once the previous waves committed.
        """
        depth = self.depths()
        waves: list[list[int]] = [
            [] for _ in range(max(depth.values(), default=-1) + 1)
        ]
        for i in self.nodes:
            waves[depth[i]].append(i)
        return waves

    def shape(self) -> tuple[int, int]:
        """``(critical_path, width)`` from one :meth:`depths` pass — what
        the per-window stats read of a DAG."""
        per_depth: dict[int, int] = {}
        for depth in self.depths().values():
            per_depth[depth] = per_depth.get(depth, 0) + 1
        # Depths are contiguous from 0, so their count is the longest path.
        return len(per_depth), max(per_depth.values(), default=0)

    @property
    def critical_path(self) -> int:
        """Longest chain of non-commuting ops — the component's makespan
        lower bound in operation units (``len(nodes)`` when the component
        is a total order, less when the conflict structure admits width)."""
        return self.shape()[0]

    @property
    def width(self) -> int:
        """Largest antichain wave — the intra-component parallelism an
        op-granular schedule can exploit (1 = effectively a chain)."""
        return self.shape()[1]

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass
class ConflictGraph:
    """Pairwise non-commute structure of one window (indices into ``ops``),
    and everything :meth:`build` folds out of it in the same two walks."""

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
    #: Direct DAG predecessors / successors per index that has any,
    #: ascending — the edge keys ascend, so they are appended in order.
    _preds: dict[int, list[int]] = field(repr=False)
    _succs: dict[int, list[int]] = field(repr=False)

    @classmethod
    def build(
        cls, classifier: OpClassifier, ops: list[PendingOp]
    ) -> "ConflictGraph":
        """The window's graph, its edges found through the location index
        (:func:`~repro.objects.footprint.conflict_candidates`)."""
        ops = list(ops)
        footprints = [classifier.footprint(op) for op in ops]
        classes = [
            0 if fp is None else 2 if fp.adds or fp.sets else 1
            for fp in footprints
        ]
        # Walk 1, over the candidates: the ascending edge dict, each op's
        # successors (every candidate is an edge) and the contended set.
        edges: dict[tuple[int, int], PairKind] = {}
        succs: dict[int, list[int]] = {}
        contended: set[int] = set()
        needs_consensus = classifier.needs_consensus
        read_only = 0
        for i, partners in enumerate(conflict_candidates(footprints)):
            if not partners:
                continue
            succs[i] = later = sorted(partners)
            kinds = _KIND_BY_CLASS[classes[i]]
            first, fp = ops[i], footprints[i]
            for j in later:
                edges[(i, j)] = kind = kinds[classes[j]]
                if kind is _READ_ONLY:
                    read_only += 1
                elif needs_consensus(first, ops[j], (fp, footprints[j])):
                    contended.add(i)
                    contended.add(j)
        # An unknown footprint pairs with the whole window.
        unknown, n = classes.count(0), len(ops)
        classifier.stats.count_window(
            len(edges) - read_only,
            read_only,
            unknown * (n - unknown) + unknown * (unknown - 1) // 2,
        )
        # Walk 2, one fold over the edges: predecessors and union-find,
        # every root its component's smallest index.
        parent = list(range(n))
        preds: defaultdict[int, list[int]] = defaultdict(list)

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
        # A root with no successor has no edge at all (its edges would
        # lead to later members); any other root opens its component,
        # before the ascending walk reaches the rest of it.
        components: list[list[int]] = []
        group_of: dict[int, list[int]] = {}
        for i in range(n):
            if parent[i] != i:
                group_of[find(i)].append(i)
            elif i in succs:
                group_of[i] = group = [i]
                components.append(group)
            else:
                components.append([i])
        return cls(ops, edges, footprints, contended, components, preds, succs)

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
        ``dags[k].nodes == tuple(chains[k])``.  Packaged from the sorted
        neighbour lists :meth:`build` folded, without walking the edges."""
        preds, succs = self._preds, self._succs
        return [
            ComponentDAG(
                tuple(component),
                {i: tuple(preds.get(i, ())) for i in component},
                {i: tuple(succs.get(i, ())) for i in component},
            )
            for component in self._components
            if len(component) > 1
        ]
