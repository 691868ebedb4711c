"""Conflict graph over a mempool window.

Nodes are pending operations; an edge carries the pair's classification
whenever the pair is *not* statically commuting.  The scheduler reads the
graph to form waves (edge-free sets can run lane-parallel), the stats layer
reads it for conflict-rate reporting, and ``components()`` exposes the
synchronization groups — the engine-level analogue of the paper's per-
account coordination groups: only operations inside one component ever need
an order relative to each other.

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

from dataclasses import dataclass, field

from repro.analysis.commutativity import PairKind
from repro.engine.classifier import ClassifierValidationError, OpClassifier
from repro.engine.mempool import PendingOp
from repro.objects.footprint import OpFootprint


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
    """Pairwise non-commute structure of one window (indices into ``ops``)."""

    ops: list[PendingOp]
    #: ``(i, j) -> kind`` with ``i < j``, in ascending key order; only
    #: non-COMMUTE pairs are stored.
    edges: dict[tuple[int, int], PairKind]
    #: The window's static footprints, aligned with ``ops`` — the one
    #: footprint pass of the window: splitting, placement, the frontier
    #: and the cluster's routing all read them here.
    footprints: list[OpFootprint | None]
    #: ``adjacency[i]`` = the indices sharing an edge with ``i`` — ascending,
    #: because ``edges`` is.
    adjacency: list[list[int]] = field(init=False, repr=False)
    _components: list[list[int]] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.adjacency = [[] for _ in self.ops]
        for a, b in self.edges:
            self.adjacency[a].append(b)
            self.adjacency[b].append(a)

    @classmethod
    def build(
        cls, classifier: OpClassifier, ops: list[PendingOp], state=None
    ) -> "ConflictGraph":
        """The window's graph, its edges found through the classifier's
        location index.  Under ``validate`` the all-pairs classification
        runs as well — it cross-checks every verdict against the semantic
        oracle at ``state`` and owns the classifier's counters — and the
        indexed edges must equal its non-COMMUTE subset: keys, kinds and
        order."""
        ops = list(ops)
        if not classifier.validate:
            footprints = [classifier.footprint(op) for op in ops]
            return cls(
                ops, classifier.conflict_edges(ops, footprints), footprints
            )
        oracle = {
            pair: kind
            for pair, kind in classifier.classify_window(ops, state).items()
            if kind is not PairKind.COMMUTE
        }
        with classifier.uncounted():
            footprints = [classifier.footprint(op) for op in ops]
            edges = classifier.conflict_edges(ops, footprints)
        if list(edges.items()) != list(oracle.items()):
            differing = sorted(
                set(edges.items()) ^ set(oracle.items()), key=lambda e: e[0]
            )
            raise ClassifierValidationError(
                "location-indexed edges differ from the all-pairs "
                f"classification in {differing[:6] or 'order only'}"
            )
        return cls(ops, edges, footprints)

    # ------------------------------------------------------------------

    def kind(self, i: int, j: int) -> PairKind:
        if i == j:
            raise ValueError("no self-edges in a conflict graph")
        key = (i, j) if i < j else (j, i)
        return self.edges.get(key, PairKind.COMMUTE)

    def neighbors(self, i: int) -> list[int]:
        """Indices adjacent to ``i`` through any non-commute edge."""
        return list(self.adjacency[i])

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    @property
    def conflict_edges(self) -> int:
        return sum(
            1 for kind in self.edges.values() if kind is PairKind.CONFLICT
        )

    @property
    def read_only_edges(self) -> int:
        return sum(
            1 for kind in self.edges.values() if kind is PairKind.READ_ONLY
        )

    @property
    def commute_pairs(self) -> int:
        n = len(self.ops)
        return n * (n - 1) // 2 - len(self.edges)

    def conflict_rate(self) -> float:
        """CONFLICT edges as a fraction of all pairs in the window."""
        n = len(self.ops)
        total = n * (n - 1) // 2
        return self.conflict_edges / total if total else 0.0

    def components(self) -> list[list[int]]:
        """Connected components over non-commute edges (sorted indices),
        ordered by their first index.

        Singleton components are operations free to run in any lane; larger
        components are the window's synchronization groups.  Computed once
        per graph; every call returns fresh lists.
        """
        return [list(component) for component in self._grouped()]

    def _grouped(self) -> list[list[int]]:
        if self._components is not None:
            return self._components
        parent = list(range(len(self.ops)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        # A root is its component's smallest index, so an ascending walk
        # opens every component at its first member — and a vertex without
        # an edge is its own component, no union-find lookup needed.
        found: list[list[int]] = []
        group_of: dict[int, list[int]] = {}
        for i, adjacent in enumerate(self.adjacency):
            if not adjacent:
                found.append([i])
                continue
            root = find(i)
            if root == i:
                group_of[i] = group = []
                found.append(group)
            else:
                group = group_of[root]
            group.append(i)
        self._components = found
        return found

    def component_dags(self) -> list[ComponentDAG]:
        """Precedence DAGs of the multi-op components, in component order:
        aligned with :func:`repro.engine.rounds.plan_window`'s chains,
        ``dags[k].nodes == tuple(chains[k])``.  Edges are bucketed per
        component in one pass (every edge belongs to exactly one
        component), so a window costs O(V + E), not O(components × E).
        """
        multi = [c for c in self._grouped() if len(c) > 1]
        owner = {i: k for k, component in enumerate(multi) for i in component}
        buckets: list[dict] = [{} for _ in multi]
        for (a, b), kind in self.edges.items():
            buckets[owner[a]][(a, b)] = kind
        return [
            ComponentDAG.over(component, bucket)
            for component, bucket in zip(multi, buckets)
        ]
