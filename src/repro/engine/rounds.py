"""The round loop's scheduling core, factored out of the batch executor.

One round of commutativity-aware execution is the same computation whether
it runs inside a single process (:class:`~repro.engine.executor.BatchExecutor`)
or on each node of a distributed cluster (:mod:`repro.cluster`): split a
batch into conflict-graph components, decide which chain members are
contended enough to need total order, and lay the groups out on parallel
lanes.  :class:`RoundScheduler` owns exactly that logic so the cluster's
per-node executors and the single-process engine share one implementation
— and therefore one correctness argument.

Since cross-round pipelining landed (:mod:`repro.engine.pipeline`), a
round is no longer an opaque step of the batch executor but an explicit
**stage machine**: a :class:`Round` progresses ``DRAINED → CLASSIFIED →
SYNCED → PLANNED → COMMITTED`` through :class:`RoundLifecycle`, which owns
the per-stage computations.  The barrier executor drives one round through
all stages before touching the next; the pipelined executor keeps several
rounds at different stages simultaneously (window N+1 classifies and
synchronizes while window N executes).  Both drive the *same* stage
methods, so the pipelined path cannot silently diverge from the barrier
semantics the property suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.commutativity import PairKind
from repro.engine.classifier import OpClassifier
from repro.engine.conflict_graph import ConflictGraph
from repro.engine.mempool import Mempool, PendingOp
from repro.engine.shard import ShardPlan, ShardPlanner
from repro.engine.stats import WaveStats
from repro.errors import EngineError
from repro.sync.escalation import SyncRoundResult, TieredEscalator


class RoundScheduler:
    """Window splitting + lane planning for one scheduling round."""

    def __init__(self, classifier: OpClassifier, planner: ShardPlanner) -> None:
        self.classifier = classifier
        self.planner = planner

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
        for (a, b), kind in graph.edges.items():
            if kind is PairKind.CONFLICT and self.classifier.needs_consensus(
                graph.ops[a], graph.ops[b]
            ):
                contended.add(a)
                contended.add(b)
        groups = [
            group
            for chain in chains
            if (group := [i for i in chain if i in contended])
        ]
        return chains, singletons, sorted(groups, key=lambda g: g[0])


class RoundStage(Enum):
    """Lifecycle stages of one scheduling round (strictly ordered)."""

    DRAINED = "drained"
    CLASSIFIED = "classified"
    SYNCED = "synced"
    PLANNED = "planned"
    COMMITTED = "committed"


#: Stage order for transition checking.
_STAGE_ORDER = {stage: i for i, stage in enumerate(RoundStage)}


@dataclass
class Round:
    """One scheduling round moving through the stage machine.

    Every field below ``stage`` is populated by the lifecycle method that
    advances the round into the stage of the same name; reading a field
    before its stage raises nothing — it is simply empty — but the
    lifecycle refuses out-of-order transitions, so an executor cannot
    accidentally plan an unclassified round.
    """

    index: int
    ops: list[PendingOp]
    stage: RoundStage = RoundStage.DRAINED
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
    plan: ShardPlan | None = None

    @property
    def escalated_idx(self) -> list[int]:
        return [i for group in self.contended_groups for i in group]

    @property
    def chained_ops(self) -> int:
        return sum(len(chain) for chain in self.chain_idx)

    def advance(self, to: RoundStage) -> None:
        """Move to the next stage; rejects skips and regressions."""
        if _STAGE_ORDER[to] != _STAGE_ORDER[self.stage] + 1:
            raise EngineError(
                f"round {self.index} cannot go {self.stage.value} -> "
                f"{to.value}"
            )
        self.stage = to


class RoundLifecycle:
    """The per-stage computations of one round, shared by executors.

    The barrier executor (:class:`~repro.engine.executor.BatchExecutor`)
    runs ``drain → classify → synchronize → plan`` back to back and then
    executes; the pipelined executor (:mod:`repro.engine.pipeline`)
    interleaves the stages of several rounds.  Keeping the computations
    here — and the stage tracking on :class:`Round` — means there is only
    one implementation of each stage for the two executors to agree with.
    """

    def __init__(
        self,
        scheduler: RoundScheduler,
        sync: TieredEscalator,
        object_type,
        op_cost: float = 1.0,
    ) -> None:
        self.scheduler = scheduler
        self.sync = sync
        self.object_type = object_type
        self.op_cost = op_cost

    # -- stages ----------------------------------------------------------

    def drain(self, mempool: Mempool, window: int, index: int) -> Round | None:
        """DRAINED: pop the next window; ``None`` when the pool is empty."""
        ops = mempool.pop_window(window)
        if not ops:
            return None
        return Round(index=index, ops=ops)

    def classify(self, round_: Round, state=None) -> Round:
        """CLASSIFIED: conflict graph + component split for the window."""
        round_.graph = ConflictGraph.build(
            self.scheduler.classifier, round_.ops, state
        )
        (
            round_.chain_idx,
            round_.singleton_idx,
            round_.contended_groups,
        ) = self.scheduler.split_sync(round_.graph)
        round_.dags = round_.graph.component_dags()
        round_.advance(RoundStage.CLASSIFIED)
        return round_

    def synchronize(self, round_: Round, state=None) -> Round:
        """SYNCED: order the contended components through the tiered sync
        layer (team lanes below the threshold, the global lane above)."""
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
        round_.advance(RoundStage.SYNCED)
        return round_

    def plan(self, round_: Round) -> Round:
        """PLANNED: schedule the window's ops on the parallel lanes along
        the per-chain DAGs (the barrier layout on fresh lanes; the
        pipelined executor places onto its rolling timeline instead and
        skips this stage).  The plan carries an explicit
        serially-equivalent application order."""
        round_.plan = self.scheduler.planner.plan(
            [[round_.ops[i] for i in chain] for chain in round_.chain_idx],
            [round_.ops[i] for i in round_.singleton_idx],
            round_.dags,
        )
        round_.advance(RoundStage.PLANNED)
        return round_

    # -- accounting ------------------------------------------------------

    def barrier_stats(self, round_: Round) -> WaveStats:
        """COMMITTED: the barrier executor's round accounting — the round
        costs its lane critical path plus its synchronization phase."""
        plan, escalation = round_.plan, round_.escalation
        assert plan is not None and escalation is not None
        escalated = len(round_.escalated_idx)
        round_.advance(RoundStage.COMMITTED)
        return WaveStats(
            dag_critical_path=max(
                (dag.critical_path for dag in round_.dags), default=0
            ),
            dag_width=max((dag.width for dag in round_.dags), default=0),
            dag_chain_ops=sum(dag.size for dag in round_.dags),
            dag_critical_ops=sum(
                dag.critical_path for dag in round_.dags
            ),
            index=round_.index,
            window=len(round_.ops),
            wave_ops=len(round_.singleton_idx),
            barrier_ops=round_.chained_ops - escalated,
            escalated_ops=escalated,
            lanes_used=plan.lanes_used,
            critical_path=plan.critical_path,
            virtual_time=plan.critical_path * self.op_cost
            + escalation.virtual_time,
            escalation_time=escalation.virtual_time,
            escalation_messages=escalation.messages,
            team_ops=escalation.team_ops,
            global_ops=escalation.global_ops,
            team_messages=escalation.team_messages,
            global_messages=escalation.global_messages,
            teams=escalation.teams,
            team_sizes=escalation.team_sizes,
        )
