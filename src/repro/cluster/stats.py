"""Cluster measurements: what shard ownership buys at the message level.

The single-process engine showed the trichotomy's value in lane-parallel
virtual time; the cluster makes the same argument *distributed*: owner-local
traffic costs two point-to-point messages (forward + reply) and zero
coordination, lease handoffs cost three messages per migrated shard, and
only contended cross-node components pay the total-order lane's quadratic
bill.  Every round records how the window split along those lines, and each
node keeps its own bill, so load imbalance and per-node coordination cost
are first-class outputs.

All times are in the cluster simulator's virtual clock (network latencies +
operation units + simulated consensus latency), matching the repository's
measurement philosophy.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING

from repro._records import field, record
from repro.engine.stats import escalation_rate
from repro.engine.stats import fold_sync_bill, histogram_mean, summary_dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.sync.escalation import SyncRoundResult


@record
class NodeBill:
    """Per-node accounting over a full cluster run."""

    node_id: int
    ops_executed: int = 0
    rounds_active: int = 0
    #: Virtual time spent executing: each unit's execution span — first
    #: op start to last finish, queueing excluded (spans of units
    #: overlapping on disjoint lanes both count).
    busy_time: float = 0.0
    forwards_received: int = 0
    results_sent: int = 0
    #: Shard leases handed away / acquired through the lease protocol.
    leases_granted: int = 0
    leases_acquired: int = 0
    #: Virtual time spent waiting for this node's synchronization lanes
    #: (team or global) before a unit could execute.
    sync_wait_time: float = 0.0
    #: Units executed on this node (a unit is one conflict-graph
    #: component, or a round's singleton set).
    units_executed: int = 0
    #: Chained ops this node planned vs the sum of their components'
    #: critical paths, and the high-water marks of component critical
    #: path / antichain width it saw.
    dag_chain_ops: int = 0
    dag_critical_ops: int = 0
    max_dag_critical_path: int = 0
    max_dag_width: int = 0
    #: Fault lifecycle (:mod:`repro.faults`): times this node crashed and
    #: times it rejoined the cluster.
    crashes: int = 0
    restarts: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@record(slots=True)
class ClusterRound:
    """One routing round at the cluster's client edge: filled at routing;
    the router adds the dispatch stalls and stamps the completion.  The
    round's synchronization bill is its
    :class:`~repro.sync.escalation.SyncRoundResult`, which
    :meth:`ClusterStats.record_round` folds and this record does not
    keep."""

    index: int
    window: int
    owner_local_ops: int
    hot_split_ops: int
    spill_ops: int
    escalated_ops: int
    lease_migrations: int
    nodes_used: int
    #: Classification to completion.
    virtual_time: float = 0.0
    #: Independently gated ``cl_run`` units this round fanned out as.
    units_dispatched: int = 0
    #: Cross-round pipelining: rounds in flight when this one was
    #: classified, virtual time its units spent gated at the router
    #: before dispatch (``dispatch_stall_contended`` is the share of
    #: sync-ordered units), and the round's absolute completion time.
    inflight: int = 1
    dispatch_stall: float = 0.0
    dispatch_stall_contended: float = 0.0
    #: The share of the dispatch stall caused by the cross-round footprint
    #: gate specifically (a conflicting earlier unit had not committed
    #: yet) — pipeline fill excluded.
    frontier_stall: float = 0.0
    frontier_stall_contended: float = 0.0
    completed_at: float = 0.0


@record
class ClusterStats:
    """Aggregate over a full cluster run."""

    num_nodes: int = 1
    lanes_per_node: int = 1
    window: int = 0
    num_shards: int = 0
    #: One op's virtual time, always 1 (``benchmarks/wall`` reads it).
    op_cost: float = 1.0
    #: Configured window overlap depth (1 = one round in flight).
    pipeline_depth: int = 1

    ops_executed: int = 0
    rounds: int = 0
    #: Total independently gated dispatch units.
    units_dispatched: int = 0
    #: Ops executed on the node owning their anchor account (the zero-
    #: coordination fast path: one forward, one reply, nothing else).
    owner_local_ops: int = 0
    #: Commuting-bundle ops sprayed off their owner by hot-shard splitting.
    hot_split_ops: int = 0
    #: Commuting singletons shed from overloaded nodes (overflow spill).
    spill_ops: int = 0
    #: Chain members ordered by a synchronization lane (team or global).
    escalated_ops: int = 0
    #: Tiered split (:mod:`repro.sync`): team-lane ops pay ``O(k²)`` among
    #: their owner nodes, global ops pay the shared Tier ∞ lane.
    team_ops: int = 0
    global_ops: int = 0
    team_messages: int = 0
    global_messages: int = 0
    #: ``team size k -> team-lane components of that size`` over the run.
    team_k_histogram: dict[int, int] = field(default_factory=dict)
    #: High-water mark of team lanes active in a single round.
    max_concurrent_teams: int = 0
    #: Submissions shed by the router's bounded mempool (backpressure).
    dropped_ops: int = 0

    lease_migrations: int = 0
    lease_messages: int = 0
    escalations: int = 0
    escalation_messages: int = 0
    escalation_time: float = 0.0

    #: Cross-round pipelining: high-water mark of rounds in flight and
    #: total router-side dispatch stall (split by contended attribution).
    #: ``dispatch_stall_time`` includes benign pipeline fill (waiting for
    #: a pipeline slot); ``frontier_stall_time`` is the cross-round
    #: footprint gate alone.
    max_inflight_rounds: int = 0
    dispatch_stall_time: float = 0.0
    dispatch_stall_time_contended: float = 0.0
    frontier_stall_time: float = 0.0
    frontier_stall_time_contended: float = 0.0

    #: Fault tolerance (:mod:`repro.faults`): crash/recovery accounting.
    #: ``ops_lost`` is the committed-op loss — admitted operations whose
    #: response never materialized; the recovery protocol holds it at 0
    #: for every crash schedule.  ``ops_replayed`` counts operations
    #: re-dispatched from a failed node to a survivor; ``revocations``
    #: counts shard leases unilaterally revoked from failed owners;
    #: ``rejoins`` counts nodes readmitted after a restart;
    #: ``recovery_makespan`` is the total virtual time between declaring
    #: a node dead and its last replayed result (per failure episode);
    #: ``stale_messages`` counts results/acks from fenced or superseded
    #: senders that the router tolerated instead of raising.
    ops_lost: int = 0
    ops_replayed: int = 0
    revocations: int = 0
    rejoins: int = 0
    recovery_makespan: float = 0.0
    stale_messages: int = 0

    #: Virtual-time end-to-end makespan (network + execution + consensus).
    makespan: float = 0.0
    #: Data-plane messages on the cluster network (forwards/results/leases).
    cluster_messages: int = 0

    node_bills: list[NodeBill] = field(default_factory=list)
    round_log: list[ClusterRound] = field(default_factory=list)

    # ------------------------------------------------------------------

    def record_round(
        self, round_stats: ClusterRound, sync: SyncRoundResult
    ) -> None:
        self.rounds += 1
        self.units_dispatched += round_stats.units_dispatched
        self.ops_executed += round_stats.window
        self.owner_local_ops += round_stats.owner_local_ops
        self.hot_split_ops += round_stats.hot_split_ops
        self.spill_ops += round_stats.spill_ops
        self.escalated_ops += round_stats.escalated_ops
        fold_sync_bill(self, sync, self.team_k_histogram)
        self.max_inflight_rounds = max(
            self.max_inflight_rounds, round_stats.inflight
        )
        self.dispatch_stall_time += round_stats.dispatch_stall
        self.dispatch_stall_time_contended += (
            round_stats.dispatch_stall_contended
        )
        self.frontier_stall_time += round_stats.frontier_stall
        self.frontier_stall_time_contended += (
            round_stats.frontier_stall_contended
        )
        self.lease_migrations += round_stats.lease_migrations
        if sync.messages:
            self.escalations += 1
        self.round_log.append(round_stats)

    # -- derived ---------------------------------------------------------

    @property
    def throughput(self) -> float:
        """Operations per virtual time unit, end to end."""
        if self.makespan <= 0:
            return 0.0
        return self.ops_executed / self.makespan

    escalation_rate = escalation_rate

    @property
    def owner_local_rate(self) -> float:
        if not self.ops_executed:
            return 0.0
        return self.owner_local_ops / self.ops_executed

    @property
    def mean_team_size(self) -> float:
        """Mean *k* over all team-lane components (0.0 when none ran)."""
        return histogram_mean(self.team_k_histogram)

    @property
    def dag_chain_ops(self) -> int:
        return sum(bill.dag_chain_ops for bill in self.node_bills)

    @property
    def dag_critical_ops(self) -> int:
        return sum(bill.dag_critical_ops for bill in self.node_bills)

    @property
    def dag_speedup(self) -> float:
        """Chained ops over summed component critical paths across all
        nodes — the intra-component parallelism op-granular node planning
        exploited."""
        critical = self.dag_critical_ops
        if not critical:
            return 1.0
        return self.dag_chain_ops / critical

    @property
    def max_dag_critical_path(self) -> int:
        return max(
            (bill.max_dag_critical_path for bill in self.node_bills),
            default=0,
        )

    @property
    def max_dag_width(self) -> int:
        return max(
            (bill.max_dag_width for bill in self.node_bills), default=0
        )

    @property
    def load_imbalance(self) -> float:
        """Max over mean of per-node executed ops (1.0 = perfectly even)."""
        loads = [bill.ops_executed for bill in self.node_bills]
        if not loads or not sum(loads):
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0

    #: Properties :meth:`as_dict` reports beside the counters.
    _DERIVED = (
        "dag_chain_ops",
        "dag_critical_ops",
        "dag_speedup",
        "max_dag_critical_path",
        "max_dag_width",
        "owner_local_rate",
        "escalation_rate",
        "mean_team_size",
        "throughput",
        "load_imbalance",
    )

    def as_dict(self) -> dict:
        """JSON-ready summary (used by ``benchmarks/bench_cluster.py``):
        the counters, the derived rates and each node's bill — not the
        per-round log."""
        summary = summary_dict(
            self, self._DERIVED, logs=("round_log", "node_bills")
        )
        summary["node_bills"] = [bill.as_dict() for bill in self.node_bills]
        return summary
