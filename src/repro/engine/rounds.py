"""The round loop's scheduling core, shared by the engine and the cluster.

One round of commutativity-aware execution is the same computation whether
it runs inside a single process
(:class:`~repro.engine.pipeline.PipelinedExecutor`) or at the cluster's
router and on each of its nodes (:mod:`repro.cluster`): split a window
into conflict-graph components and decide which chain members are
contended enough to need total order.  :class:`RoundScheduler` owns
exactly that logic so all three share one implementation — and therefore
one correctness argument.

A :class:`Round` is drained, classified and synchronized — in that one
fixed order, by the one executor — through :class:`RoundLifecycle`, which
owns the per-stage computations; the executor then places the synced
round on its rolling lane timeline.  Several rounds are in flight at
once (window N+1 classifies and synchronizes while window N executes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.commutativity import PairKind
from repro.engine.classifier import OpClassifier
from repro.engine.conflict_graph import ConflictGraph
from repro.engine.mempool import Mempool, PendingOp
from repro.sync.escalation import SyncRoundResult, TieredEscalator


class RoundScheduler:
    """Window splitting for one scheduling round."""

    def __init__(self, classifier: OpClassifier) -> None:
        self.classifier = classifier

    # ------------------------------------------------------------------

    def split(
        self, graph: ConflictGraph
    ) -> tuple[list[list[int]], list[int], list[int]]:
        """Partition window indices into (chains, singletons, contended).

        Components of the conflict graph are independent: operations in
        different components statically commute, so components run in
        parallel.  Within a multi-operation component (a *chain*) the
        non-commuting pairs keep their submission order — its precedence
        DAG.  Singleton components commute with the entire window and can
        run anywhere.

        ``contended`` indices are the chain members that sit on a
        synchronization-group conflict: a CONFLICT edge between *distinct*
        processes contending on a shared cell (two enabled spenders of one
        account, approve vs transferFrom on one allowance, one NFT) — see
        ``OpClassifier.needs_consensus``.  Only those can ever need total
        order; same-process conflicts, credit-enables-spend races and
        READ_ONLY pairs are resolved by chain order alone, which costs no
        messages.
        """
        chains, singletons, groups = self.split_sync(graph)
        return chains, singletons, sorted(i for group in groups for i in group)

    def split_sync(
        self, graph: ConflictGraph
    ) -> tuple[list[list[int]], list[int], list[list[int]]]:
        """Like :meth:`split`, but keeps the contended indices grouped by
        their conflict-graph component — the unit the tiered sync layer
        (:mod:`repro.sync`) sizes teams for.  Each group is the contended
        subset of one chain, in submission order; groups are ordered by
        their first index.  Flattening the groups recovers :meth:`split`'s
        third result exactly.
        """
        chains: list[list[int]] = []
        singletons: list[int] = []
        for component in graph.components():
            if len(component) == 1:
                singletons.append(component[0])
            else:
                chains.append(component)
        contended: set[int] = set()
        ops, footprints = graph.ops, graph.footprints
        for (a, b), kind in graph.edges.items():
            if kind is PairKind.CONFLICT and self.classifier.needs_consensus(
                ops[a], ops[b], (footprints[a], footprints[b])
            ):
                contended.add(a)
                contended.add(b)
        groups = [
            group
            for chain in chains
            if (group := [i for i in chain if i in contended])
        ]
        return chains, singletons, sorted(groups, key=lambda g: g[0])


@dataclass
class Round:
    """One scheduling round moving through its stages.

    Every field below ``ops`` is populated by the lifecycle method of its
    stage (``classify`` fills the graph and the split, ``synchronize``
    the escalation); reading a field before its stage raises nothing — it
    is simply empty.
    """

    index: int
    ops: list[PendingOp]
    graph: ConflictGraph | None = None
    chain_idx: list[list[int]] = field(default_factory=list)
    singleton_idx: list[int] = field(default_factory=list)
    #: Contended subset of each chain, grouped by component (the unit the
    #: tiered sync layer sizes teams for).
    contended_groups: list[list[int]] = field(default_factory=list)
    #: Per-chain precedence DAGs (positionally aligned with
    #: ``chain_idx``).
    dags: list = field(default_factory=list)
    escalation: SyncRoundResult | None = None

    @property
    def escalated_idx(self) -> list[int]:
        return [i for group in self.contended_groups for i in group]

    @property
    def chained_ops(self) -> int:
        return sum(len(chain) for chain in self.chain_idx)


class RoundLifecycle:
    """The per-stage computations of one round (``drain → classify →
    synchronize``)."""

    def __init__(
        self, scheduler: RoundScheduler, sync: TieredEscalator, object_type
    ) -> None:
        self.scheduler = scheduler
        self.sync = sync
        self.object_type = object_type

    # -- stages ----------------------------------------------------------

    def drain(self, mempool: Mempool, window: int, index: int) -> Round | None:
        """Drain: pop the next window; ``None`` when the pool is empty."""
        ops = mempool.pop_window(window)
        if not ops:
            return None
        return Round(index=index, ops=ops)

    def classify(self, round_: Round, state=None) -> Round:
        """Classify: conflict graph + component split for the window."""
        round_.graph = ConflictGraph.build(
            self.scheduler.classifier, round_.ops, state
        )
        (
            round_.chain_idx,
            round_.singleton_idx,
            round_.contended_groups,
        ) = self.scheduler.split_sync(round_.graph)
        round_.dags = round_.graph.component_dags()
        return round_

    def synchronize(self, round_: Round, state=None) -> Round:
        """Synchronize: order the contended components through the tiered
        sync layer (team lanes below the threshold, the global lane above)."""
        round_.escalation = (
            self.sync.order_round(
                [
                    [round_.ops[i] for i in group]
                    for group in round_.contended_groups
                ],
                self.scheduler.classifier,
                state=state,
                object_type=self.object_type,
            )
            if round_.contended_groups
            else SyncRoundResult()
        )
        return round_
