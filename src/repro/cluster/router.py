"""The cluster's client edge: admission, routing, leases, escalation.

The router is the distributed analogue of the engine's round loop.  Each
round it pops a window from its (optionally bounded) mempool, classifies
it with the shared :class:`~repro.engine.rounds.RoundScheduler`, and
routes every conflict-graph component as a unit:

* **owner-local components** — every operation anchors on an account whose
  shard one node owns; the component is forwarded point-to-point and costs
  no coordination at all (the paper's consensus-number-1 regime at the
  message level);
* **cross-shard but uncontended components** — a chain whose anchors span
  several owners without any synchronization-group conflict inside it
  (e.g. credit-enables-spend order across accounts).  The shard-ownership
  *lease protocol* resolves it: the router asks the minority owners to
  hand their shards to the busiest participant (``cl_lease_request`` →
  ``cl_lease_grant`` → ``cl_lease_ack``), ownership migrates, and the
  chain executes owner-locally on the new owner — three messages per
  migrated shard instead of a consensus round;
* **contended cross-node components** — synchronization-group conflicts
  whose members span owners.  No single owner is entitled to sequence the
  race, but — by the paper's Theorems 2–4 — only the *participants* have
  to agree: each such component gets a **team lane** among just its owner
  nodes (:mod:`repro.sync`, ``O(k²)`` messages for ``k`` owners, many
  teams concurrent) when the owner set is within ``team_threshold``;
  larger races fall back to the shared total-order lane
  (:class:`~repro.engine.escalation.ConsensusEscalator`).  Either way the
  ordering latency delays only the units carrying those components (the
  ``sync_ready`` carried by each unit's ``cl_run``).

Oversized commuting bundles (hot shards) are sprayed across the least-
loaded nodes using the engine planner's target heuristic — sound because
singleton components commute with the whole window — and counted as hot
splits rather than migrations.

Lease anti-churn: besides ``lease_min_gain``, a ``lease_cooldown`` of
``c`` rounds pins a shard to its new owner for ``c`` rounds after every
migration, so ownership cannot ping-pong between two nodes on alternating
rounds (suppressed handoffs are counted, and the chain still executes
correctly on its majority owner — co-location, not ownership, is the
safety argument).

Co-locating whole components per round is the entire safety argument:
any two operations applied on different nodes in one round statically
commute, so every network interleaving is serially equivalent, for any
node count and any lease schedule.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.config import ClusterConfig
from repro.engine.classifier import OpClassifier
from repro.engine.conflict_graph import ConflictGraph
from repro.engine.escalation import ConsensusEscalator, tiered_escalator
from repro.engine.mempool import Mempool, PendingOp
from repro.engine.rounds import RoundScheduler
from repro.errors import ClusterError, MempoolFullError
from repro.net.network import Message, Network
from repro.net.node import Node
from repro.objects.footprint import FootprintSummary, anchor_account
from repro.obs.trace import TraceRecorder
from repro.sync.escalation import SyncRoundResult
from repro.sync.planner import SyncAssignment
from repro.workloads.generators import WorkloadItem

from repro.cluster.sharding import ShardMap
from repro.cluster.stats import ClusterRound, ClusterStats

#: The lease handshake costs three messages per migrated shard.
LEASE_MESSAGE_TYPES = (
    "cl_lease_request",
    "cl_lease_grant",
    "cl_lease_ack",
    "cl_lease_revoke",
)

#: Sentinel round index of administrative lease traffic — fail-over
#: revocations and rejoin rebalancing transfers.  No unit waits
#: on an administrative grant; its ack only releases the per-shard
#: handoff serialization.
ADMIN_ROUND = -1

#: Unit indices at or above this base are replay incarnations (a fresh
#: index per replay keeps ``(node, unit)`` keys collision-free against
#: every positionally indexed unit of the round).
_REPLAY_BASE = 1 << 20


@dataclass(slots=True, eq=False)
class _Unit:
    """One component-granular dispatch unit, from routing to its result.

    A unit is a single conflict-graph component co-located on one node —
    or the residual set of the node's singletons, which commute with the
    whole window.  Units are the gate granularity of the router: each
    carries its own footprint summary, its own sync-lane delay, and its
    own lease count, so one blocked component does not hold up
    everything else routed to its node that round.  A fail-over replay
    moves the same record to ``(target, _REPLAY_BASE + n)``; identity,
    not the key, is what queues, timers and recovery episodes hold.
    """

    ops: tuple[PendingOp, ...]
    contended: bool
    #: This unit's sync-lane completion, relative to the round's sync
    #: phase start (0.0 for uncontended units).
    sync_delay: float
    #: Lease grants the unit's node must hold before running it.
    leases: int
    node: int
    uidx: int
    #: May-access summary, the cross-round frontier test's input.
    summary: FootprintSummary
    dispatched: bool = False
    done: bool = False
    #: Time the ready-to-go unit was first blocked by the cross-round
    #: footprint gate.
    blocked_since: float | None = None
    #: Result-timeout timer and the serial execution envelope charged to
    #: the node while the unit is dispatched (recovery only).
    timer: Any = None
    envelope: float | None = None
    #: Virtual time the current replay incarnation was created
    #: (recovery-stall attribution), and the failed node(s) whose
    #: episodes await its result.
    replay_started: float | None = None
    episodes: tuple[int, ...] = ()


@dataclass
class _Round:
    """One routed window and its in-flight bookkeeping.  Routing itself
    is pure (component co-location, lease planning, hot-shard splitting,
    spill, tiered synchronization); *when* the units and lease requests
    go out is :meth:`Router.pump`'s business."""

    index: int
    assignment: dict[int, list[PendingOp]]
    migrations: list[tuple[int, int, int]]
    sync: SyncRoundResult
    owner_local: int
    hot_split: int
    spill: int
    escalated: int
    cooldown_skips: int
    #: ``(node, unit index)`` -> unit; per node, indices follow the
    #: submission order of the units' heads.
    units: dict[tuple[int, int], _Unit]
    #: shard -> *routing-time* index of the unit whose chain triggered
    #: the migration.  A replay does not rename it: a handoff re-sent
    #: after the replay still wakes the original incarnation parked on
    #: the adopter.
    lease_units: dict[int, int]
    #: Per contended op: ``(seq, completed)`` with ``completed`` relative
    #: to the round's sync phase start (tracer lifecycle bookkeeping).
    sync_ops: tuple[tuple[int, float], ...]
    #: Results still owed, and lease requests not yet sent (per-shard
    #: handoffs serialize) / not yet acknowledged.
    pending: int
    lease_pending: list[tuple[int, int, int]]
    pending_acks: int
    classified: float
    #: Absolute start of this round's synchronization phase (the shared
    #: sync lanes are one resource: phases serialize across rounds but
    #: overlap node execution).
    sync_start: float
    #: Rounds in flight (this one included) right after classification.
    inflight: int
    dispatch_stall: float = 0.0
    dispatch_stall_contended: float = 0.0
    frontier_stall: float = 0.0
    frontier_stall_contended: float = 0.0
    #: Replay incarnations created so far (the next one's index offset).
    replays: int = 0


@dataclass
class _RecoveryEpisode:
    """One node-failure episode: from declaring the node dead (or its
    rejoin-time reconciliation) to the last replayed result arriving."""

    started: float
    #: The replayed units whose results the episode still awaits.
    outstanding: set[_Unit] = field(default_factory=set)


class Router(Node):
    """Client-edge node: admission control, footprint routing, leases."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        shard_map: ShardMap,
        classifier: OpClassifier,
        escalator: ConsensusEscalator,
        stats: ClusterStats,
        config: ClusterConfig,
        state_fn: Callable[[], Any] | None = None,
        tracer: TraceRecorder | None = None,
        faults=None,
    ) -> None:
        super().__init__(node_id, network)
        self.shard_map = shard_map
        self.classifier = classifier
        self.escalator = escalator
        self.stats = stats
        self.config = config
        self.mempool = Mempool(capacity=config.mempool_capacity)
        #: The tiered sync layer: contended cross-node components get a
        #: team lane among just their owner nodes when the owner set is
        #: within ``team_threshold``; the shared global lane otherwise.
        self.sync = tiered_escalator(
            escalator,
            team_threshold=config.team_threshold,
            seed=config.seed,
            lane_ttl=config.lane_ttl,
        )
        self.scheduler = RoundScheduler(classifier)
        #: shard -> round of its last lease migration (cooldown bookkeeping).
        self._last_migration: dict[int, int] = {}
        self._state_fn = state_fn
        self.responses: dict[int, Any] = {}
        self._rounds_started = 0
        #: Cross-round pipelining: up to ``pipeline_depth`` rounds in
        #: flight, per-node queues of ``(round index, unit)`` entries
        #: awaiting dispatch, and the gates that stand in for a global
        #: round barrier (see :meth:`pump`).
        stats.pipeline_depth = config.pipeline_depth
        self._inflight: dict[int, _Round] = {}
        self._node_queue: dict[int, deque[tuple[int, _Unit]]] = {
            node: deque() for node in range(shard_map.num_nodes)
        }
        #: shard -> round of its in-flight lease handoff (handoffs of one
        #: shard serialize: the next request waits for the previous ack).
        self._shard_ack_round: dict[int, int] = {}
        #: Absolute time the shared sync lanes are busy until.
        self._sync_free = 0.0
        #: Optional observability hook (:mod:`repro.obs`); ``None``
        #: records nothing and leaves every stats dict unchanged.
        self.tracer = tracer
        if tracer is not None:
            self.sync.pool.tracer = tracer
        #: Fault recovery (:mod:`repro.faults`).  ``result_timeout`` arms
        #: a timer per dispatched unit; a unit whose ``cl_result`` is
        #: late is evidence its node died, and the router fences the
        #: node, revokes its leases, and replays its in-flight units on
        #: survivors.  ``None`` (the default) disables detection: no
        #: timer is armed and no probe is sent.
        self.recovery = config.result_timeout is not None
        self.lease_timeout = (
            config.lease_timeout
            if config.lease_timeout is not None
            else config.result_timeout
        )
        self.faults = faults
        #: Operations admitted past the mempool (the denominator of the
        #: zero-committed-op-loss check: admitted − responded = lost).
        self.admitted_ops = 0
        self._dead: set[int] = set()
        #: shard -> lease-timeout timer / ``(round, granter, adopter)``
        #: of its in-flight handoff (recovery bookkeeping only).
        self._lease_timers: dict = {}
        self._handoff_info: dict = {}
        #: Failed node -> its open recovery episode.
        self._recovering: dict[int, _RecoveryEpisode] = {}
        #: node -> last virtual time it was dispatched to or heard from
        #: (result or ack); the liveness floor result timeouts extend to.
        self._last_heard: dict[int, float] = {}
        #: node -> serial-sum execution envelope of its dispatched but
        #: unfinished units (each unit remembers its own share).  A
        #: single giant conflict component runs longer than any fixed
        #: timeout while producing no interim results; its silence is
        #: not evidence until its execution envelope has elapsed too.
        #: The envelope shrinks as results land, so detection latency is
        #: bounded by the node's outstanding work, not the run length.
        self._outstanding_work: dict[int, float] = {}
        #: node -> virtual time of its open liveness probe / of its last
        #: pong.  A timeout alone cannot tell a dead node from a live one
        #: whose message was lost in transit; the probe asks the node
        #: itself.  Pongs are kept apart from ``_last_heard``: an answer
        #: proves the node is up, not that its work is moving, and must
        #: not push back the result deadline whose expiry sent the probe.
        self._probes: dict[int, float] = {}
        self._last_pong: dict[int, float] = {}
        #: round -> unit retransmissions charged against its budget, and
        #: shard -> handoff resends.  Both capped, so a network that
        #: eats every copy ends the run with an honest error instead of
        #: retransmitting forever.
        self._retransmits: dict[int, int] = {}
        self._lease_resends: dict[int, int] = {}

    # -- intake -----------------------------------------------------------

    def submit(
        self, pid: int, operation, arrival: float | None = None
    ) -> PendingOp | None:
        """Admit one operation; ``None`` (and a drop counter) when the
        bounded mempool sheds it — the cluster's backpressure edge.
        ``arrival`` back-dates the traced ``submit`` stage to the op's
        open-loop arrival time (at or before the network's ``now``), so
        traced latency reads commit − arrival; ``None`` stamps the
        current simulator time."""
        try:
            pending = self.mempool.submit(pid, operation)
        except MempoolFullError:
            self.stats.dropped_ops += 1
            return None
        self.admitted_ops += 1
        if self.tracer is not None:
            self.tracer.op_submit(
                pending.seq, self.now if arrival is None else arrival
            )
        return pending

    def admit(self, items: Iterable[WorkloadItem]) -> list[PendingOp]:
        """Admit a workload; returns the accepted operations only."""
        admitted = [self.submit(item.pid, item.operation) for item in items]
        return [pending for pending in admitted if pending is not None]

    # -- routing ----------------------------------------------------------

    def _anchor(self, op: PendingOp) -> int:
        return anchor_account(self.classifier.footprint(op), op.pid)

    def _route_window(self, window: list[PendingOp], index: int) -> _Round:
        """Route one window: co-locate components, plan leases, order the
        contended components through the sync layer.  Pure computation —
        no messages are sent (that is :meth:`pump`'s job)."""
        num_nodes = self.shard_map.num_nodes
        # A chain migrates leases only when its majority owner already has
        # at least ``min_gain`` of its operations — a 1-vs-1 split names no
        # "busier node" and a handoff would be pure ownership churn — and
        # a freshly migrated shard stays pinned to its new owner for
        # ``cooldown`` rounds (hysteresis against alternating-round
        # ping-pong).
        min_gain = self.config.lease_min_gain
        cooldown = self.config.lease_cooldown
        # Nodes declared dead take no new work.
        live = [n for n in range(num_nodes) if n not in self._dead]
        state = self._state_fn() if self._state_fn is not None else None
        graph = ConflictGraph.build(self.classifier, window, state)
        chain_idx, singleton_idx, contended_idx = self.scheduler.split(graph)
        contended = set(contended_idx)

        assignment: dict[int, list[PendingOp]] = {
            node: [] for node in range(num_nodes)
        }
        #: Start-of-round home node per op — the owner-local yardstick
        #: (this round's own migrations must not flatter the metric).
        home = {
            window[i].seq: self.shard_map.owner_of(self._anchor(window[i]))
            for i in range(len(window))
        }
        escalated_ops: list[PendingOp] = []
        #: Per contended cross-node component: (owner-node team, contended
        #: ops, the chain's unit) — what the sync layer tiers.
        escalated_components: list[
            tuple[frozenset[int], tuple[PendingOp, ...], _Unit]
        ] = []
        migrations: list[tuple[int, int, int]] = []
        migrated_shards: set[int] = set()
        chain_seqs: set[int] = set()
        #: Component-granular dispatch: one unit per routed chain (head
        #: submission order) plus, below, one residual unit of each
        #: node's singletons.
        units: dict[tuple[int, int], _Unit] = {}
        units_on: Counter[int] = Counter()
        lease_units: dict[int, int] = {}

        def add_unit(node: int, ops: list[PendingOp]) -> _Unit:
            unit = _Unit(
                ops=tuple(ops),
                contended=False,
                sync_delay=0.0,
                leases=0,
                node=node,
                uidx=units_on[node],
                summary=FootprintSummary.over(
                    self.classifier.footprint(op) for op in ops
                ),
            )
            units_on[node] += 1
            units[(node, unit.uidx)] = unit
            return unit

        hot_split = 0
        cooldown_skips = 0

        # Components route as units (the co-location invariant).  Chains
        # first, in submission order of their heads.
        for chain in sorted(chain_idx, key=lambda c: c[0]):
            ops = [window[i] for i in chain]
            chain_seqs.update(op.seq for op in ops)
            owners = Counter(
                self.shard_map.owner_of(self._anchor(op)) for op in ops
            )
            # Majority owner wins; ties go to the currently least-loaded
            # participant (an id tie-break would funnel every evenly-split
            # chain — and, through leases, ever more ownership — onto the
            # lowest node id).
            target = min(
                owners, key=lambda n: (-owners[n], len(assignment[n]), n)
            )
            unit = add_unit(target, ops)
            chain_contended = [i for i in chain if i in contended]
            if len(owners) > 1 and chain_contended:
                # A race spanning owners: a sync lane sequences exactly the
                # contended members — a team lane among just the owner
                # nodes when their count fits the threshold, the shared
                # global lane otherwise.  The chain executes on the node
                # already owning most of it.
                component = tuple(window[i] for i in chain_contended)
                escalated_ops.extend(component)
                unit.contended = True
                escalated_components.append(
                    (frozenset(owners), component, unit)
                )
            elif len(owners) > 1 and owners[target] >= min_gain:
                # Uncontended cross-shard chain with a clearly busier node:
                # migrate the minority shards' leases to it, then run
                # owner-local.
                foreign = sorted(
                    {
                        self.shard_map.shard_of(self._anchor(op))
                        for op in ops
                        if self.shard_map.owner_of(self._anchor(op)) != target
                    }
                )
                for shard in foreign:
                    if shard in migrated_shards:
                        continue  # one lease move per shard per round
                    last = self._last_migration.get(shard)
                    if last is not None and index - last <= cooldown:
                        # Hysteresis: the shard moved too recently; the
                        # chain still executes correctly on the majority
                        # owner (co-location is what safety needs), the
                        # minority ops are simply not owner-local.
                        cooldown_skips += 1
                        continue
                    migrated_shards.add(shard)
                    from_node = self.shard_map.owner_of_shard(shard)
                    self.shard_map.migrate(shard, target, index)
                    self._last_migration[shard] = index
                    migrations.append((shard, from_node, target))
                    unit.leases += 1
                    lease_units[shard] = unit.uidx
            assignment[target].extend(ops)

        # Singletons bundle by anchor account; oversized commuting bundles
        # are sprayed across the least-loaded nodes (hot-shard splitting,
        # the engine planner's target heuristic at cluster granularity).
        target_load = math.ceil(len(window) / len(live))
        bundles: dict[int, list[PendingOp]] = {}
        for i in singleton_idx:
            op = window[i]
            bundles.setdefault(self._anchor(op), []).append(op)

        def least_loaded() -> int:
            return min(live, key=lambda n: (len(assignment[n]), n))

        for account, ops in sorted(
            bundles.items(), key=lambda kv: (-len(kv[1]), kv[0])
        ):
            if len(ops) > target_load and len(live) > 1:
                hot_split += len(ops)
                for op in ops:
                    assignment[least_loaded()].append(op)
            else:
                assignment[self.shard_map.owner_of(account)].extend(ops)

        # Overflow spill, the engine planner's second heuristic at node
        # granularity: shed commuting singletons (never chain members) from
        # overloaded nodes.  Moving a singleton anywhere is sound — it
        # commutes with the entire window.
        spill = 0
        exhausted: set[int] = set()
        while len(live) > 1:
            heaviest = max(
                (n for n in live if n not in exhausted),
                key=lambda n: (len(assignment[n]), -n),
                default=None,
            )
            if heaviest is None:
                break
            lightest = least_loaded()
            if len(assignment[heaviest]) - len(assignment[lightest]) <= 1:
                break
            if len(assignment[heaviest]) <= target_load:
                break
            movable = next(
                (
                    k
                    for k in range(len(assignment[heaviest]) - 1, -1, -1)
                    if assignment[heaviest][k].seq not in chain_seqs
                ),
                None,
            )
            if movable is None:
                # All chain members: this node's load is atomic; try others.
                exhausted.add(heaviest)
                continue
            assignment[lightest].append(assignment[heaviest].pop(movable))
            spill += 1

        owner_local = sum(
            1
            for node, ops in assignment.items()
            for op in ops
            if home[op.seq] == node
        )

        # Synchronization: each contended cross-node component through its
        # cheapest adequate lane.  Team-tier components (owner set within
        # the threshold) run concurrently on the pool; the rest merge into
        # one submission-ordered batch on the shared global lane.  A
        # unit waits only for its *own* component's lane.
        sync_round = SyncRoundResult()
        if escalated_components:
            assignments = []
            for team, component, _ in escalated_components:
                decision = self.sync.planner.decide(team)
                assignments.append(
                    SyncAssignment(
                        tier=decision.tier, team=decision.team, ops=component
                    )
                )
            sync_round = self.sync.order_assignments(assignments)
            for (_, _, unit), order in zip(
                escalated_components, sync_round.components
            ):
                unit.sync_delay = order.completed

        assignment = {
            node: sorted(ops, key=lambda op: op.seq)
            for node, ops in assignment.items()
            if ops
        }

        # Each node's singletons commute with the whole window, so they
        # share one residual unit (and one gate).
        for node, ops in assignment.items():
            rest = [op for op in ops if op.seq not in chain_seqs]
            if rest:
                add_unit(node, rest)
        return _Round(
            index=index,
            assignment=assignment,
            migrations=migrations,
            sync=sync_round,
            owner_local=owner_local,
            hot_split=hot_split,
            spill=spill,
            escalated=len(escalated_ops),
            cooldown_skips=cooldown_skips,
            units=units,
            lease_units=lease_units,
            sync_ops=tuple(
                (op.seq, order.completed)
                for (_, component, _), order in zip(
                    escalated_components, sync_round.components
                )
                for op in component
            ),
            pending=len(units),
            lease_pending=list(migrations),
            pending_acks=len(migrations),
            classified=self.now,
            sync_start=max(self.now, self._sync_free),
            inflight=len(self._inflight) + 1,
        )

    def _trace_routed(self, routed: _Round) -> None:
        """Record one routed window: the classification instant and per-op
        ``classify`` stage, the sync phase's extent (informational — the
        waits themselves are attributed on the node spans), and the
        per-op ``sync`` stage at each component's lane commit."""
        tracer = self.tracer
        assert tracer is not None
        tracer.instant(
            "router",
            f"round {routed.index} classified",
            self.now,
            args={
                "window": sum(
                    len(ops) for ops in routed.assignment.values()
                )
            },
        )
        for ops in routed.assignment.values():
            for op in ops:
                tracer.op_stage(op.seq, "classify", self.now)
        sync_start = routed.sync_start
        if routed.sync.virtual_time > 0:
            tracer.span(
                "router.sync",
                f"sync r{routed.index}",
                "sync_wait",
                sync_start,
                sync_start + routed.sync.virtual_time,
                chain=False,
                args={"messages": routed.sync.messages},
            )
        for seq, completed in routed.sync_ops:
            tracer.op_stage(seq, "sync", sync_start + completed)

    def _trace_dispatch(
        self,
        name: str,
        stall: float,
        gate_stall: float,
        recovery_stall: float = 0.0,
    ) -> None:
        """Record a delayed dispatch: a zero-length chained span at the
        send instant whose stalls tile the wait since classification —
        the footprint-gate portion as ``frontier_stall`` (latest, it ends
        at the send), the rest as ``dispatch_stall`` (pipeline-slot or
        node-FIFO queueing).  A replay incarnation charges the window
        from its creation (the node's death was declared) to the send as
        ``recovery`` instead — the footprint gate, if it held the replay
        at all, did so inside that window."""
        assert self.tracer is not None
        if recovery_stall > 0:
            stalls = tuple(
                (category, amount)
                for category, amount in (
                    ("recovery", recovery_stall),
                    ("dispatch_stall", stall - recovery_stall),
                )
                if amount > 0
            )
        else:
            stalls = tuple(
                (category, amount)
                for category, amount in (
                    ("frontier_stall", gate_stall),
                    ("dispatch_stall", stall - gate_stall),
                )
                if amount > 0
            )
        self.tracer.span(
            "router",
            name,
            "dispatch_stall",
            self.now,
            self.now,
            stalls=stalls,
        )

    # -- pipelined round loop ---------------------------------------------

    def pump(self) -> int:
        """Classify as many windows as the pipeline has room for, then
        dispatch every unit whose gates cleared; returns the number of
        rounds classified.

        There is no global round barrier, only per-resource gates:

        * **cross-round footprint** — a unit waits for every earlier
          in-flight unit (on any node) whose may-access summary does not
          statically commute with it (:class:`~repro.objects.footprint.
          FootprintSummary`), so overlapped rounds only ever reorder
          commuting operations;
        * **per-shard lease order** — handoffs of one shard serialize:
          round N+1's request goes out once round N's handoff of the same
          shard has been acknowledged.

        Every gate references strictly earlier rounds, so the pipeline
        cannot deadlock.  ``pipeline_depth=1`` is the same loop with one
        round in flight.
        """
        classified = 0
        while len(self._inflight) < self.config.pipeline_depth:
            window = self.mempool.pop_window(self.config.window)
            if not window:
                break
            index = self._rounds_started
            self._rounds_started += 1
            routed = self._route_window(window, index)
            if routed.sync.virtual_time > 0:
                self._sync_free = routed.sync_start + routed.sync.virtual_time
            if self.tracer is not None:
                self._trace_routed(routed)
            self._inflight[index] = routed
            for unit in routed.units.values():
                self._node_queue[unit.node].append((index, unit))
            classified += 1
        self._drain_gates()
        return classified

    def _drain_gates(self) -> None:
        """Send every lease request and unit whose gates now pass."""
        progress = True
        while progress:
            progress = False
            for index in sorted(self._inflight):
                round_state = self._inflight[index]
                for migration in list(round_state.lease_pending):
                    shard, from_node, to_node = migration
                    if shard in self._shard_ack_round:
                        continue  # an earlier handoff of this shard is out
                    round_state.lease_pending.remove(migration)
                    if self.recovery and from_node in self._dead:
                        # The planned granter died: adopt unilaterally.
                        self._direct_adopt(shard, index, from_node, to_node)
                        progress = True
                        continue
                    self._shard_ack_round[shard] = index
                    self.send(
                        from_node,
                        "cl_lease_request",
                        {
                            "shard": shard,
                            "new_owner": to_node,
                            "round": index,
                            # The grant must unblock exactly the unit
                            # whose chain migrated this shard.
                            "unit": round_state.lease_units[shard],
                        },
                    )
                    if self.recovery:
                        self._handoff_info[shard] = (index, from_node, to_node)
                        self._arm_lease_timer(shard)
                    progress = True
            progress |= self._drain_unit_queues()

    def _drain_unit_queues(self) -> bool:
        """Send every unit whose footprint gate passes.  There is no
        per-node FIFO and no outstanding-unit limit — a node's units
        interleave on its lane timeline, and a blocked unit is simply
        *skipped* (it does not hold up the rest of its round).
        Cross-round conflicts stay ordered because a conflicting later
        unit is exactly what the gate refuses to dispatch."""
        progress = False
        for node in sorted(self._node_queue):
            if node in self._dead:
                continue
            queue = self._node_queue[node]
            for entry in list(queue):
                index, unit = entry
                round_state = self._inflight[index]
                if self._unit_blocked(index, unit):
                    if unit.blocked_since is None:
                        unit.blocked_since = self.now
                    continue
                queue.remove(entry)
                unit.dispatched = True
                stall = self.now - round_state.classified
                gate_stall = recovery_stall = 0.0
                if unit.blocked_since is not None:
                    gate_stall = self.now - unit.blocked_since
                    unit.blocked_since = None
                if unit.replay_started is not None:
                    recovery_stall = self.now - unit.replay_started
                    unit.replay_started = None
                round_state.dispatch_stall += stall
                round_state.frontier_stall += gate_stall
                if unit.contended:
                    round_state.dispatch_stall_contended += stall
                    round_state.frontier_stall_contended += gate_stall
                if self.tracer is not None and stall > 0:
                    self._trace_dispatch(
                        f"dispatch r{index} n{node} u{unit.uidx}",
                        stall,
                        gate_stall,
                        recovery_stall,
                    )
                self._send_unit(round_state, unit)
                progress = True
        return progress

    def _unit_blocked(self, index: int, unit: _Unit) -> bool:
        """The per-unit footprint gate: may this unit overlap every
        still-incomplete unit of every earlier in-flight round?  Same-node
        units are *not* exempt — there is no per-node FIFO, so
        cross-round same-node ordering is this gate's job too.  Units of
        one round never gate each other (distinct components commute)."""
        return any(
            not other.done and unit.summary.conflicts_with(other.summary)
            for earlier, earlier_state in self._inflight.items()
            if earlier < index
            for other in earlier_state.units.values()
        )

    def _send_unit(self, round_state: _Round, unit: _Unit) -> None:
        # Absolute completion of this unit's sync lane (0.0 for
        # uncontended units): the lane ran while the unit waited in the
        # pipeline, so the node pays only the remainder.
        sync_ready = (
            round_state.sync_start + unit.sync_delay
            if unit.sync_delay
            else 0.0
        )
        # The unit's ops ride inside the announcement itself: a unit is
        # component-granular (often one chain or a handful of
        # singletons), and one forward message per op would dominate the
        # cluster message bill.
        self.send(
            unit.node,
            "cl_run",
            {
                "round": round_state.index,
                "unit": unit.uidx,
                "leases": unit.leases,
                "ops": list(unit.ops),
                "sync_ready": sync_ready,
            },
        )
        if self.recovery:
            # The timeout clock starts when the unit can actually run:
            # a unit parked behind its sync lane is late evidence of
            # nothing, so the lane remainder extends the deadline.
            sync_wait = max(0.0, sync_ready - self.now)
            # Dispatch refreshes the liveness floor: an idle node owes
            # nothing until it is given work again.
            self._last_heard[unit.node] = max(
                self._last_heard.get(unit.node, 0.0), self.now
            )
            # Charge the unit's serial execution to the node's work
            # envelope (conservative: lanes overlap, the envelope does
            # not) — detection latency trades against never suspecting a
            # node that is merely grinding through a long component.
            unit.envelope = len(unit.ops) * self.config.op_cost + sync_wait
            self._outstanding_work[unit.node] = (
                self._outstanding_work.get(unit.node, 0.0) + unit.envelope
            )
            self._arm_result_timer(
                round_state, unit, self.config.result_timeout + sync_wait
            )

    def _settle_dispatch(self, unit: _Unit) -> None:
        """The dispatched incarnation is over (its result arrived or it is
        being replayed): stop its timer and take its envelope off the
        node's outstanding work."""
        if unit.timer is not None:
            unit.timer.cancel()
            unit.timer = None
        if unit.envelope is not None:
            self._outstanding_work[unit.node] = max(
                0.0,
                self._outstanding_work.get(unit.node, 0.0) - unit.envelope,
            )
            unit.envelope = None

    def _finish_pipelined_round(self, index: int) -> None:
        routed = self._inflight[index]
        if routed.pending or routed.pending_acks > 0:
            return
        self.stats.record_round(
            ClusterRound(
                index=index,
                window=sum(len(ops) for ops in routed.assignment.values()),
                owner_local_ops=routed.owner_local,
                hot_split_ops=routed.hot_split,
                spill_ops=routed.spill,
                escalated_ops=routed.escalated,
                lease_migrations=len(routed.migrations),
                nodes_used=len(routed.assignment),
                virtual_time=self.now - routed.classified,
                escalation_time=routed.sync.virtual_time,
                escalation_messages=routed.sync.messages,
                team_ops=routed.sync.team_ops,
                global_ops=routed.sync.global_ops,
                team_messages=routed.sync.team_messages,
                global_messages=routed.sync.global_messages,
                teams=routed.sync.teams,
                team_sizes=routed.sync.team_sizes,
                cooldown_skips=routed.cooldown_skips,
                inflight=routed.inflight,
                dispatch_stall=routed.dispatch_stall,
                dispatch_stall_contended=routed.dispatch_stall_contended,
                frontier_stall=routed.frontier_stall,
                frontier_stall_contended=routed.frontier_stall_contended,
                completed_at=self.now,
                # A replay moves a unit, it does not add one.
                units_dispatched=len(routed.units),
            )
        )
        del self._inflight[index]
        self._retransmits.pop(index, None)
        self.pump()

    # -- fail-over: detection, revocation, replay -------------------------

    def _arm_lease_timer(self, shard: int) -> None:
        if not self.recovery:
            return
        self._cancel_lease_timer(shard)
        self._lease_timers[shard] = self.schedule(
            self.lease_timeout, lambda: self._lease_timed_out(shard)
        )

    def _cancel_lease_timer(self, shard: int) -> None:
        timer = self._lease_timers.pop(shard, None)
        if timer is not None:
            timer.cancel()

    def _probe_state(self, node: int) -> str:
        """Probe-based liveness: ``alive`` if the node was heard from
        since its open probe, ``dead`` if the probe went unanswered for a
        full ``result_timeout``, ``pending`` while it is still in flight.
        The first suspicion sends the ping; probes only ever follow a
        fired timer, so a fault-free run never pays for one.  An answered
        probe stays open until a caller acts on the verdict and retires
        it (the next suspicion then asks afresh), so a timer waiting on a
        second party does not lose the first one's answer."""
        probe = self._probes.get(node)
        if probe is None:
            self._probes[node] = self.now
            self.send(node, "cl_ping", {})
            return "pending"
        heard = max(
            self._last_heard.get(node, 0.0), self._last_pong.get(node, 0.0)
        )
        if heard >= probe:
            return "alive"
        if self.now >= probe + self.config.result_timeout:
            return "dead"
        return "pending"

    def _lease_timed_out(self, shard: int) -> None:
        """A handoff's ack is late.  Either a party to the handoff is
        dead, or the grant/revoke/ack itself was lost in transit — and
        silence cannot tell the two apart, so probe the parties.  A dead
        party goes through :meth:`_declare_dead`, which settles this
        handoff synthetically; if everyone answers, the message was the
        casualty and the adoption is resent — the shard's serialization
        token and the node-side running guard make duplicates no-ops."""
        self._lease_timers.pop(shard, None)
        info = self._handoff_info.get(shard)
        if info is None or shard not in self._shard_ack_round:
            return
        handoff_round, granter, adopter = info
        parties = [
            party
            for party in dict.fromkeys((granter, adopter))
            if party not in self._dead
        ]
        if not parties:
            return
        states = {party: self._probe_state(party) for party in parties}
        for party in parties:
            if states[party] == "dead":
                self._declare_dead(party)
                return
        if all(states[party] == "alive" for party in parties):
            for party in parties:
                del self._probes[party]
            resends = self._lease_resends.get(shard, 0) + 1
            if resends > 8:
                raise ClusterError(
                    f"shard {shard} handoff cannot complete: the network "
                    "keeps losing its grant or ack"
                )
            self._lease_resends[shard] = resends
            self._direct_adopt(shard, handoff_round, granter, adopter)
            return
        expiry = min(
            self._probes[party] + self.config.result_timeout
            for party in parties
            if states[party] == "pending"
        )
        self._lease_timers[shard] = self.schedule(
            expiry - self.now, lambda: self._lease_timed_out(shard)
        )

    def _arm_result_timer(
        self, round_state: _Round, unit: _Unit, delay: float
    ) -> None:
        unit.timer = self.schedule(
            delay, lambda: self._result_timed_out(round_state, unit)
        )

    def _result_timed_out(self, round_state: _Round, unit: _Unit) -> None:
        unit.timer = None
        node = unit.node
        if unit.done or node in self._dead:
            return
        # Liveness, not latency: a unit's deadline extends as long as the
        # node keeps producing *anything* (results, acks) and as long as
        # its dispatched work envelope could still be executing.  A
        # backlogged survivor digesting a replay burst — or one long
        # conflict component — is slow, not dead; suspecting it would
        # cascade fail-overs onto ever-fewer nodes.
        timeout = self.config.result_timeout
        deadline = (
            self._last_heard.get(node, 0.0)
            + self._outstanding_work.get(node, 0.0)
            + timeout
        )
        if deadline > self.now:
            self._arm_result_timer(round_state, unit, deadline - self.now)
            return
        # The envelope elapsed too — but silence still cannot tell a
        # dead node from a live one whose result (or a grant feeding it)
        # was lost in transit.  Probe before condemning: a pong means
        # the unit itself is the casualty and retransmitting it is the
        # cure (the commit dedup absorbs any straggling original); only
        # a probe unanswered for a full timeout is evidence of death.
        state = self._probe_state(node)
        if state == "pending":
            self._arm_result_timer(
                round_state, unit, self._probes[node] + timeout - self.now
            )
        elif state == "alive":
            del self._probes[node]
            self._retransmit_unit(round_state, unit)
        else:
            self._declare_dead(node)

    def _retransmit_unit(self, round_state: _Round, unit: _Unit) -> None:
        """The node answers probes but the unit is overdue beyond its
        whole work envelope: a message it depends on was lost.  Replay
        it on the least-loaded live node, against a per-round budget —
        a network that eats every copy fails the run loudly."""
        index = round_state.index
        spent = self._retransmits.get(index, 0) + 1
        if spent > max(16, 2 * self.config.window):
            raise ClusterError(
                f"round {index} exhausted its retransmission budget: "
                "results are being lost faster than replays restore them"
            )
        self._retransmits[index] = spent
        self.stats.ops_replayed += self._replay_unit(round_state, unit)
        self._drain_gates()

    def _declare_dead(self, node: int) -> None:
        """Fail a node over: fence it, resolve its in-flight lease
        handoffs, revoke every shard it owns (cooldown bypassed — a
        revoked shard must be re-grantable immediately), and replay its
        uncommitted in-flight units on survivors.  Committed units are
        untouched: their results already arrived, and the apply-side
        dedup makes any straggler re-execution a no-op."""
        if not self.recovery or node in self._dead:
            return
        live = [
            n
            for n in range(self.shard_map.num_nodes)
            if n != node and n not in self._dead
        ]
        if not live:
            raise ClusterError(
                f"node {node} timed out and no live nodes remain "
                "to fail over to"
            )
        self._dead.add(node)
        self._probes.pop(node, None)
        if self.faults is not None:
            self.faults.fence(node)
        started = self.now
        if self.tracer is not None:
            self.tracer.instant(
                "faults",
                f"node {node} declared dead",
                started,
                args={"node": node},
            )
        # In-flight lease handoffs touching the dead node cannot finish
        # on their own.  A dead *adopter*'s ack is resolved synthetically
        # (the shard itself is revoked below and the waiting unit
        # replayed); a dead *granter* is bypassed — the adopter takes the
        # lease unilaterally and its ack keeps the round bookkeeping.
        for shard, info in sorted(self._handoff_info.items()):
            handoff_round, from_node, to_node = info
            if from_node != node and to_node != node:
                continue
            self._cancel_lease_timer(shard)
            del self._handoff_info[shard]
            self._shard_ack_round.pop(shard, None)
            self._lease_resends.pop(shard, None)
            if to_node == node:
                round_state = self._inflight.get(handoff_round)
                if round_state is not None and handoff_round >= 0:
                    round_state.pending_acks -= 1
            else:
                self._direct_adopt(shard, handoff_round, node, to_node)
        for index in sorted(self._inflight):
            round_state = self._inflight[index]
            for migration in list(round_state.lease_pending):
                shard, from_node, to_node = migration
                if to_node != node:
                    # A queued migration *granted by* the dead node stays
                    # queued: _drain_gates adopts unilaterally when the
                    # shard's serialization token clears.
                    continue
                round_state.lease_pending.remove(migration)
                round_state.pending_acks -= 1
        # Revoke the dead node's leases and spread its shards over the
        # survivors.  The cooldown pin is dropped, not set: revocation
        # must leave the shard immediately re-grantable.  A shard with a
        # live handoff token is left alone — clobbering the token would
        # orphan that handoff's ack — and is lazily adopted by the next
        # migration planned off the dead owner.
        for shard in sorted(self.shard_map.shards_of_node(node)):
            if shard in self._shard_ack_round:
                continue
            target = min(
                live,
                key=lambda n: (len(self.shard_map.shards_of_node(n)), n),
            )
            self.shard_map.migrate(shard, target, self._rounds_started)
            self._last_migration.pop(shard, None)
            self.stats.revocations += 1
            if self.tracer is not None:
                self.tracer.instant(
                    "faults",
                    f"revoke shard {shard} -> node {target}",
                    self.now,
                    args={"shard": shard, "node": target, "from_node": node},
                )
            self._direct_adopt(shard, ADMIN_ROUND, node, target)
        # Replay every uncommitted in-flight unit of the dead node —
        # queued or dispatched, its cl_run/result died with the node.
        episode = self._recovering.get(node)
        if episode is None:
            episode = _RecoveryEpisode(started=started)
            self._recovering[node] = episode
        for index in sorted(self._inflight):
            round_state = self._inflight[index]
            for unit in self._owed_by(round_state, node):
                self.stats.ops_replayed += self._replay_unit(
                    round_state, unit
                )
        # Synthetic ack resolution may have completed rounds.
        for index in sorted(self._inflight):
            if index in self._inflight:
                self._finish_pipelined_round(index)
        self._drain_gates()

    def _direct_adopt(
        self, shard: int, handoff_round: int, from_node: int, to_node: int
    ) -> None:
        """Reassign a shard without its (dead) owner's cooperation via
        ``cl_lease_revoke``.  The adopter's ack serializes further
        handoffs of the shard behind the adoption, exactly like a normal
        grant's ack; a revoke carrying a real round doubles as the grant
        the named unit was waiting for."""
        self._shard_ack_round[shard] = handoff_round
        self._handoff_info[shard] = (handoff_round, to_node, to_node)
        self._arm_lease_timer(shard)
        payload = {
            "shard": shard,
            "from_node": from_node,
            "round": handoff_round,
        }
        if handoff_round >= 0:
            payload["unit"] = self._inflight[handoff_round].lease_units[shard]
        self.send(to_node, "cl_lease_revoke", payload)

    @staticmethod
    def _owed_by(round_state: _Round, node: int) -> list[_Unit]:
        """The node's units of the round still owing a result, in index
        order (a list: replaying them re-keys ``round_state.units``)."""
        return sorted(
            (
                unit
                for unit in round_state.units.values()
                if unit.node == node and not unit.done
            ),
            key=lambda unit: unit.uidx,
        )

    def _replay_unit(self, round_state: _Round, unit: _Unit) -> int:
        """Re-dispatch one in-flight unit of a failed node on a live one.

        The replay needs no lease grants — co-location, not ownership,
        is the safety argument — and its sync order (if any) was already
        committed, so ``sync_ready`` rides along unchanged.  The record
        itself moves to the new key, footprint summary included, so every
        later round's conflicting unit stays gated behind the replay
        exactly as it was behind the original."""
        node = unit.node
        live = [
            n
            for n in range(self.shard_map.num_nodes)
            if n not in self._dead
        ]
        target = min(live, key=lambda n: (len(self._node_queue[n]), n))
        self._settle_dispatch(unit)
        entry = (round_state.index, unit)
        if not unit.dispatched:
            self._node_queue[node].remove(entry)
        del round_state.units[(node, unit.uidx)]
        unit.node = target
        unit.uidx = _REPLAY_BASE + round_state.replays
        round_state.replays += 1
        round_state.units[(target, unit.uidx)] = unit
        unit.leases = 0
        unit.dispatched = False
        unit.blocked_since = None
        self._node_queue[target].append(entry)
        if node not in unit.episodes:
            unit.episodes += (node,)
        for owner in unit.episodes:
            episode = self._recovering.get(owner)
            if episode is not None:
                episode.outstanding.add(unit)
        unit.replay_started = self.now
        return len(unit.ops)

    def node_rejoined(self, node: int) -> None:
        """Readmit a restarted node: clear its dead mark, replay whatever
        was dispatched to it before the crash (the crash erased it), and
        rebalance shards onto it so it carries a fair share again."""
        if not self.recovery:
            return
        self._dead.discard(node)
        self._probes.pop(node, None)
        self._last_heard[node] = self.now
        # The crash voided whatever envelope the dead incarnation had
        # accrued; a stale bound must not slow re-detection.
        self._outstanding_work[node] = 0.0
        self.stats.rejoins += 1
        if self.tracer is not None:
            self.tracer.instant(
                "faults",
                f"node {node} rejoined",
                self.now,
                args={"node": node},
            )
        replayed = 0
        for index in sorted(self._inflight):
            round_state = self._inflight[index]
            for unit in self._owed_by(round_state, node):
                if not unit.dispatched:
                    continue
                if node not in self._recovering:
                    self._recovering[node] = _RecoveryEpisode(
                        started=self.now
                    )
                replayed += self._replay_unit(round_state, unit)
        self.stats.ops_replayed += replayed
        self._rebalance_to(node)
        self._drain_gates()

    def _rebalance_to(self, node: int) -> None:
        """Administrative lease transfers bringing a rejoined node up to
        its fair shard share — the normal request/grant/ack handshake
        under the :data:`ADMIN_ROUND` sentinel, cooldown pins set as any
        migration would."""
        live = [
            n
            for n in range(self.shard_map.num_nodes)
            if n not in self._dead
        ]
        fair = self.shard_map.num_shards // len(live)
        while len(self.shard_map.shards_of_node(node)) < fair:
            donors = [
                n
                for n in live
                if n != node
                and len(self.shard_map.shards_of_node(n)) > fair
            ]
            if not donors:
                break
            donor = max(
                donors,
                key=lambda n: (len(self.shard_map.shards_of_node(n)), n),
            )
            movable = [
                shard
                for shard in self.shard_map.shards_of_node(donor)
                if shard not in self._shard_ack_round
            ]
            if not movable:
                break
            shard = max(movable)
            self.shard_map.migrate(shard, node, self._rounds_started)
            self._last_migration[shard] = self._rounds_started
            self._shard_ack_round[shard] = ADMIN_ROUND
            self._handoff_info[shard] = (ADMIN_ROUND, donor, node)
            self._arm_lease_timer(shard)
            self.send(
                donor,
                "cl_lease_request",
                {"shard": shard, "new_owner": node, "round": ADMIN_ROUND},
            )

    def _settle_replay(self, unit: _Unit) -> None:
        """A unit's result arrived: settle every failure episode waiting
        on it (none unless it was replayed); an episode whose last replay
        settled adds its span to ``recovery_makespan``."""
        for owner in unit.episodes:
            episode = self._recovering.get(owner)
            if episode is None:
                continue
            episode.outstanding.discard(unit)
            if episode.outstanding:
                continue
            del self._recovering[owner]
            self.stats.recovery_makespan += self.now - episode.started
            if self.tracer is not None:
                self.tracer.span(
                    "faults",
                    f"recovery node {owner}",
                    "recovery",
                    episode.started,
                    self.now,
                    chain=False,
                    args={"node": owner},
                )

    # -- message handlers -------------------------------------------------

    def handle_cl_pong(self, message: Message) -> None:
        """A probed node answered: alive, however late its work.  The
        timer that sent the probe re-fires, sees the answer, and
        retransmits the stuck message instead of declaring the node
        dead.  The pong is deliberately *not* progress: refreshing
        ``_last_heard`` here would re-arm the very deadline whose expiry
        sent the probe, and the router would ping forever."""
        self._last_pong[message.src] = self.now

    def _stale(self, what: str) -> None:
        """A message whose unit or handoff was already settled.  Under
        recovery that is a straggler — a result from a node declared
        dead after sending it, an ack that raced a revocation — and the
        apply-side dedup already made any double execution a no-op, so
        count it; without recovery nothing is ever re-sent, so it is a
        protocol error."""
        if not self.recovery:
            raise ClusterError(what)
        self.stats.stale_messages += 1

    def handle_cl_lease_ack(self, message: Message) -> None:
        body = message.payload
        index = body["round"]
        shard = body["shard"]
        if self.recovery:
            self._last_heard[message.src] = self.now
        # The shard's serialization token is the exactly-once guard: an
        # ack settles its handoff (timer, bookkeeping, pending_acks) only
        # while it still holds the token.  An ack whose handoff was
        # settled synthetically by _declare_dead — or that raced a
        # revocation — finds the token gone or moved on.
        if self._shard_ack_round.get(shard) != index:
            self._stale(f"stray lease ack for shard {shard}, round {index}")
            return
        self._cancel_lease_timer(shard)
        self._handoff_info.pop(shard, None)
        del self._shard_ack_round[shard]
        self._lease_resends.pop(shard, None)
        # An administrative handoff (revocation fail-over or rejoin
        # rebalancing) has no round bookkeeping.
        if index != ADMIN_ROUND:
            round_state = self._inflight.get(index)
            if round_state is None:
                self._stale("stray lease ack outside its round")
                return
            round_state.pending_acks -= 1
            self._finish_pipelined_round(index)
        self._drain_gates()

    def handle_cl_result(self, message: Message) -> None:
        body = message.payload
        index = body["round"]
        if self.recovery:
            self._last_heard[message.src] = self.now
        round_state = self._inflight.get(index)
        unit = (
            round_state.units.get((message.src, body["unit"]))
            if round_state is not None
            else None
        )
        if unit is None or unit.done:
            self._stale(
                f"stray or duplicate result from node {message.src} "
                f"in round {index}"
            )
            return
        self.responses.update(body["responses"])
        unit.done = True
        round_state.pending -= 1
        self._settle_dispatch(unit)
        self._settle_replay(unit)
        self._finish_pipelined_round(index)
        self._drain_gates()

    @property
    def idle(self) -> bool:
        return not self._inflight
