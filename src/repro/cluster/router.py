"""The cluster's client edge: admission, dispatch, leases, fail-over.

The router is the distributed analogue of the engine's round loop.  Each
round it pops a window from its (optionally bounded) mempool,
:func:`~repro.cluster.routing.route_window` *decides* where every
conflict-graph component runs and which shard leases migrate (the policy
and its safety argument are that module's docstring), and the router
*drives* those decisions over the network — three protocols, one record
per instance: the **unit lifecycle** (routed → gated → dispatched → done
or replayed; :class:`~repro.cluster.routing._Unit`, whose methods own the
transitions and return what the router bills), the **lease handoff**
(request → grant → ack, or a unilateral revoke → ack; :class:`_Handoff`,
whose presence is the shard's serialization token) and the **failure
detector** (timer → ping → pong naming the units the node runs, or
declare dead → revoke and replay → rejoin; :class:`_Peer` holds the
node's last answer, and :meth:`Router._ask` is the one rule every timer
asks through).  The detector estimates nothing: a timer that fires asks
the node, re-arms while the node says it is running the unit, and acts
only on an answer or on a ping unanswered for a full ``result_timeout``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro._records import field, record
from repro.config import ClusterConfig
from repro.engine.classifier import OpClassifier
from repro.engine.mempool import Mempool, PendingOp
from repro.engine.rounds import WallAdapters
from repro.errors import ClusterError, MempoolFullError
from repro.net.network import Message, Network
from repro.net.node import Node
from repro.objects.footprint import static_pair_kind
from repro.sync.escalation import TieredEscalator
from repro.workloads.generators import WorkloadItem

from repro.cluster.routing import _Round, _Unit, route_window
from repro.cluster.sharding import ShardMap
from repro.cluster.stats import ClusterStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceRecorder

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


@record
class _RecoveryEpisode:
    """One node-failure episode: from declaring the node dead (or its
    rejoin-time reconciliation) to the last replayed result arriving."""

    started: float
    #: The replayed units whose results the episode still awaits.
    outstanding: set[_Unit] = field(default_factory=set)


@record(slots=True, eq=False)
class _Handoff:
    """One in-flight lease handoff of one shard, from its request (or
    unilateral revoke) to the adopter's ack.  Its presence in
    ``Router._handoffs`` *is* the shard's serialization token: handoffs
    of one shard serialize — the next request waits for this one's ack —
    and an ack settles a handoff only while its round still holds the
    token, which makes the token the exactly-once guard too."""

    #: The round whose chain planned the migration, or :data:`ADMIN_ROUND`.
    round: int
    #: The parties a late ack casts suspicion on.  A revoke-style handoff
    #: names the adopter as both: its granter is dead or bypassed.
    granter: int
    adopter: int
    #: Lease-timeout timer (armed under recovery only), and when it first
    #: asked the parties about this attempt (``None``: not asking).
    timer: Any = None
    since: float | None = None
    #: Adoptions re-sent because the grant, revoke or ack was lost.
    #: Capped, like a round's ``retransmits``, so a network that eats
    #: every copy ends the run with an honest error instead of
    #: retransmitting forever.
    resends: int = 0


@record(slots=True, eq=False)
class _Peer:
    """The router's view of one node: what is queued for it, and what
    the node last said about itself."""

    #: Units awaiting dispatch to the node.
    queue: list[_Unit] = field(default_factory=list)
    #: Declared dead: fenced, and given no work until it rejoins.
    dead: bool = False
    #: Send time of the node's unanswered ``cl_ping`` (``None``: no ping
    #: is out), the arrival time of its last ``cl_pong``, and that pong's
    #: answer: the ``(round, unit)`` keys the node was running.  Silence
    #: cannot tell a dead node from a slow one, or from one whose message
    #: was lost in transit; only the node's answer can.
    probe: float | None = None
    last_pong: float = 0.0
    holds: frozenset[tuple[int, int]] = frozenset()
    #: The node's open recovery episode.
    episode: _RecoveryEpisode | None = None


class Router(Node):
    """Client-edge node: admission control, dispatch, leases, fail-over."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        shard_map: ShardMap,
        classifier: OpClassifier,
        stats: ClusterStats,
        config: ClusterConfig,
        tracer: TraceRecorder | None = None,
        faults=None,
    ) -> None:
        super().__init__(node_id, network)
        self.shard_map = shard_map
        self.classifier = classifier
        self.stats = stats
        self.config = config
        self.mempool = Mempool(capacity=config.mempool_capacity)
        #: The tiered sync layer: contended cross-node components get a
        #: team lane among just their owner nodes when the owner set is
        #: within ``team_threshold``; the shared global lane otherwise.
        self.sync = TieredEscalator(
            team_threshold=config.team_threshold,
            seed=config.seed,
        )
        self.scheduler = WallAdapters(classifier)
        self.responses: dict[int, Any] = {}
        self._rounds_started = 0
        #: Cross-round pipelining: up to ``pipeline_depth`` rounds in
        #: flight, and the gates that stand in for a global round barrier
        #: (see :meth:`pump`).  Rounds enter in ascending index order, so
        #: iterating ``_inflight`` walks them oldest first.
        stats.pipeline_depth = config.pipeline_depth
        self._inflight: dict[int, _Round] = {}
        #: shard -> its in-flight lease handoff, and one record per node.
        self._handoffs: dict[int, _Handoff] = {}
        self._peers = [_Peer() for _ in range(shard_map.num_nodes)]
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
        self.faults = faults
        #: Operations admitted past the mempool (the denominator of the
        #: zero-committed-op-loss check: admitted − responded = lost).
        self.admitted_ops = 0

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

    def _live(self) -> list[int]:
        """Nodes not declared dead — the only ones given work."""
        return [n for n, peer in enumerate(self._peers) if not peer.dead]

    # -- tracing ----------------------------------------------------------

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
            args={"window": routed.stats.window},
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

    def _trace_fault(self, name: str, **args) -> None:
        """An instant on the tracer's ``faults`` track."""
        if self.tracer is not None:
            self.tracer.instant("faults", name, self.now, args=args)

    def _trace_dispatch(
        self,
        name: str,
        stall: float,
        gate_stall: float,
        recovery_stall: float,
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
        category, held = (
            ("recovery", recovery_stall)
            if recovery_stall > 0
            else ("frontier_stall", gate_stall)
        )
        stalls = ((category, held), ("dispatch_stall", stall - held))
        self.tracer.span(
            "router",
            name,
            "dispatch_stall",
            self.now,
            self.now,
            stalls=tuple(entry for entry in stalls if entry[1] > 0),
        )

    # -- pipelined round loop ---------------------------------------------

    def pump(self) -> int:
        """Classify as many windows as the pipeline has room for, then
        dispatch every unit whose gates cleared; returns the number of
        rounds classified.

        There is no global round barrier, only per-resource gates:

        * **cross-round footprint** — a unit waits for every earlier
          in-flight unit (on any node) whose footprint union does not
          statically commute with it (:func:`~repro.objects.footprint.
          static_pair_kind`), so overlapped rounds only ever reorder
          commuting operations.  Those blockers are fixed when the unit's
          round is routed, and the gate only drops the finished ones;
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
            routed = route_window(
                window,
                index,
                classifier=self.classifier,
                shard_map=self.shard_map,
                sync=self.sync,
                live=self._live(),
            )
            routed.classified = self.now
            routed.sync_start = max(self.now, self._sync_free)
            routed.stats.inflight = len(self._inflight) + 1
            if routed.sync.virtual_time > 0:
                self._sync_free = routed.sync_start + routed.sync.virtual_time
            if self.tracer is not None:
                self._trace_routed(routed)
            earlier = [
                prev
                for prior in self._inflight.values()
                for prev in prior.units.values()
                if not prev.done
            ]
            self._inflight[index] = routed
            for unit in routed.units.values():
                unit.blockers = [
                    prev
                    for prev in earlier
                    if static_pair_kind(unit.summary, prev.summary) != "commute"
                ]
                self._peers[unit.node].queue.append(unit)
            classified += 1
        self._drain_gates()
        return classified

    def _drain_gates(self) -> None:
        """Send every lease request and unit whose gates now pass.  One
        pass is the fixpoint: a handoff or a dispatch opens no gate."""
        for index, round_state in list(self._inflight.items()):
            for migration in list(round_state.lease_pending):
                shard, from_node, to_node = migration
                if shard in self._handoffs:
                    continue  # an earlier handoff of this shard is out
                round_state.lease_pending.remove(migration)
                # A planned granter that died is bypassed.
                dead = self._peers[from_node].dead
                self._open_handoff(shard, index, from_node, to_node, dead)
        self._drain_unit_queues()

    def _drain_unit_queues(self) -> None:
        """Send every unit none of whose blockers is unfinished.  Fixing
        them at routing is exact: earlier rounds' unit records never
        change (a replay moves the record), ``done`` never reverts, and
        later rounds never gate earlier ones.  Same-node units are not
        exempt — with no per-node FIFO, cross-round same-node order is
        this gate's job too.  A blocked unit is *skipped*, not a barrier."""
        for node, peer in enumerate(self._peers):
            if peer.dead or not peer.queue:
                continue
            queued, peer.queue = peer.queue, []
            for unit in queued:
                blockers = unit.blockers
                while blockers and blockers[-1].done:
                    blockers.pop()
                if blockers:
                    unit.block(self.now)
                    peer.queue.append(unit)
                    continue
                round_state = self._inflight[unit.round]
                stall = self.now - round_state.classified
                gate_stall, recovery_stall = unit.dispatch(self.now)
                totals = round_state.stats
                totals.dispatch_stall += stall
                totals.frontier_stall += gate_stall
                if unit.contended:
                    totals.dispatch_stall_contended += stall
                    totals.frontier_stall_contended += gate_stall
                if self.tracer is not None and stall > 0:
                    self._trace_dispatch(
                        f"dispatch r{unit.round} n{node} u{unit.uidx}",
                        stall,
                        gate_stall,
                        recovery_stall,
                    )
                self._send_unit(round_state, unit)

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
                "dag": unit.dag,
            },
        )
        if self.recovery:
            self._arm_result_timer(unit, self.config.result_timeout)

    def _finish_round(self, index: int) -> bool:
        """Retire the round if nothing is owed; ``True``: it did, and pumped."""
        routed = self._inflight[index]
        if routed.pending or routed.pending_acks > 0:
            return False
        routed.stats.virtual_time = self.now - routed.classified
        routed.stats.completed_at = self.now
        self.stats.record_round(routed.stats, routed.sync)
        del self._inflight[index]
        self.pump()
        return True

    # -- lease handoffs ---------------------------------------------------

    def _settle_handoff(self, shard: int) -> _Handoff:
        """Release the shard's serialization token: acked, or a party died."""
        handoff = self._handoffs.pop(shard)
        if handoff.timer is not None:
            handoff.timer.cancel()
        return handoff

    def _open_handoff(
        self, shard: int, index: int, from_node: int, to_node: int, revoke: bool
    ) -> None:
        """Hand over a shard the map already moved — planned by round
        ``index``'s chain, or administrative (:data:`ADMIN_ROUND`: no unit
        waits on it).  Normally the request → grant → ack handshake;
        ``revoke`` reassigns without the (dead or bypassed) owner's
        cooperation, and a ``cl_lease_revoke`` carrying a real round
        doubles as the grant the named unit was waiting for.  Takes the
        shard's token and, under recovery, arms the lease timer; a resend
        (:meth:`_lease_timed_out`) re-opens the handoff it already holds
        and keeps the live record, so its ``resends`` count outlives the
        resend and the cap can trip."""
        granter = to_node if revoke else from_node
        handoff = self._handoffs.setdefault(
            shard, _Handoff(index, granter, to_node)
        )
        handoff.granter = granter
        if self.recovery:
            handoff.timer = self.schedule(
                self.config.result_timeout,
                lambda: self._lease_timed_out(shard),
            )
        type, party = (
            ("cl_lease_revoke", {"from_node": from_node})
            if revoke
            else ("cl_lease_request", {"new_owner": to_node})
        )
        payload = {"shard": shard, **party, "round": index}
        if index != ADMIN_ROUND:
            # The grant must unblock exactly the unit whose chain
            # migrated this shard.
            payload["unit"] = self._inflight[index].lease_units[shard]
        self.send(granter, type, payload)

    def _lease_timed_out(self, shard: int) -> None:
        """A handoff's ack is late.  Either a party to the handoff is
        dead, or the grant/revoke/ack itself was lost in transit — and
        silence cannot tell the two apart, so ask the parties.  A dead
        party goes through :meth:`_declare_dead`, which settles this
        handoff synthetically; if everyone answers, the message was the
        casualty and the adoption is resent — the shard's serialization
        token and the node-side running guard make duplicates no-ops."""
        handoff = self._handoffs.get(shard)
        if handoff is None:
            return
        parties = [
            party
            for party in dict.fromkeys((handoff.granter, handoff.adopter))
            if not self._peers[party].dead
        ]
        if not parties:
            return
        if handoff.since is None:
            handoff.since = self.now
        verdicts = {party: self._ask(party, handoff.since) for party in parties}
        for party in parties:
            if verdicts[party] == "dead":
                self._declare_dead(party)
                return
        if all(verdicts[party] == "alive" for party in parties):
            handoff.since = None
            handoff.resends += 1
            if handoff.resends > 8:
                raise ClusterError(
                    f"shard {shard} handoff cannot complete: the network "
                    "keeps losing its grant or ack"
                )
            self._open_handoff(
                shard,
                handoff.round,
                handoff.granter,
                handoff.adopter,
                revoke=True,
            )
            return
        expiry = min(
            self._peers[party].probe + self.config.result_timeout
            for party in parties
            if verdicts[party] == "pending"
        )
        handoff.timer = self.schedule(
            expiry - self.now, lambda: self._lease_timed_out(shard)
        )

    # -- fail-over: detection, revocation, replay -------------------------

    def _ask(self, node: int, since: float) -> str:
        """The one liveness rule: ``alive`` once the node answered a ping
        after ``since``, ``dead`` once a ping has gone unanswered for a
        full ``result_timeout``, ``pending`` otherwise — sending a ping
        if none is out.  Each timer passes its own ``since``, so no timer
        consumes another's answer."""
        peer = self._peers[node]
        if peer.last_pong > since:
            return "alive"
        if peer.probe is None:
            peer.probe = self.now
            self.send(node, "cl_ping", {})
        elif self.now >= peer.probe + self.config.result_timeout:
            return "dead"
        return "pending"

    def _arm_result_timer(self, unit: _Unit, delay: float) -> None:
        unit.watch(self.schedule(delay, lambda: self._result_timed_out(unit)))

    def _result_timed_out(self, unit: _Unit) -> None:
        """A result is late: ask the node.  Running the unit, it is slow,
        not dead — wait one more ``result_timeout``, then ask afresh.
        Answering without it, it lost the unit's ``cl_run``, its grant or
        its result (or restarted), and retransmitting is the cure (the
        commit dedup absorbs any straggling original).  Only a ping
        unanswered for a full timeout is evidence of death."""
        node = unit.node
        peer = self._peers[node]
        if unit.done or peer.dead:
            return
        timeout = self.config.result_timeout
        if unit.since is None:
            unit.since = self.now
        verdict = self._ask(node, unit.since)
        if verdict == "dead":
            self._declare_dead(node)
        elif verdict == "pending":
            self._arm_result_timer(unit, peer.probe + timeout - self.now)
        elif (unit.round, unit.uidx) in peer.holds:
            unit.since = None
            self._arm_result_timer(unit, timeout)
        else:
            self._retransmit_unit(unit)

    def _retransmit_unit(self, unit: _Unit) -> None:
        """The node answered without the overdue unit: a message it
        depends on was lost.  Replay it on the least-loaded live node,
        against a per-round budget — a network that eats every copy
        fails the run loudly."""
        round_state = self._inflight[unit.round]
        round_state.retransmits += 1
        if round_state.retransmits > max(16, 2 * self.config.window):
            raise ClusterError(
                f"round {round_state.index} exhausted its retransmission "
                "budget: results are being lost faster than replays "
                "restore them"
            )
        self._replay_unit(unit)
        self._drain_gates()

    def _declare_dead(self, node: int) -> None:
        """Fail a node over: fence it, then one step per protocol — fail
        its in-flight lease handoffs, revoke every shard it owns, replay
        the uncommitted units it owes on survivors.  Committed units are
        untouched: their results already arrived, and the apply-side
        dedup makes any straggler re-execution a no-op."""
        peer = self._peers[node]
        if not self.recovery or peer.dead:
            return
        live = [n for n in self._live() if n != node]
        if not live:
            raise ClusterError(
                f"node {node} timed out and no live nodes remain "
                "to fail over to"
            )
        peer.dead = True
        if self.faults is not None:
            self.faults.fence(node)
        self._trace_fault(f"node {node} declared dead", node=node)
        self._fail_handoffs(node)
        self._revoke_shards(node, live)
        if peer.episode is None:
            peer.episode = _RecoveryEpisode(started=self.now)
        self._replay_owed(node)
        # Synthetic ack resolution may have completed rounds.
        for index in list(self._inflight):
            if index in self._inflight:
                self._finish_round(index)
        self._drain_gates()

    def _fail_handoffs(self, node: int) -> None:
        """In-flight lease handoffs touching the dead node cannot finish
        on their own.  A dead *adopter*'s ack is resolved synthetically
        (the shard itself is revoked next and the waiting unit replayed);
        a dead *granter* is bypassed — the adopter takes the lease
        unilaterally, from a fresh record (resends from zero), and its
        ack keeps the round bookkeeping."""
        for shard in sorted(self._handoffs):
            handoff = self._handoffs[shard]
            if node not in (handoff.granter, handoff.adopter):
                continue
            self._settle_handoff(shard)
            if handoff.adopter != node:
                self._open_handoff(
                    shard, handoff.round, node, handoff.adopter, revoke=True
                )
            elif handoff.round in self._inflight:
                self._inflight[handoff.round].pending_acks -= 1
        for round_state in self._inflight.values():
            for migration in list(round_state.lease_pending):
                shard, from_node, to_node = migration
                if to_node != node:
                    # A queued migration *granted by* the dead node stays
                    # queued: _drain_gates adopts unilaterally when the
                    # shard's serialization token clears.
                    continue
                round_state.lease_pending.remove(migration)
                round_state.pending_acks -= 1

    def _revoke_shards(self, node: int, live: list[int]) -> None:
        """Revoke the dead node's leases and spread its shards over the
        survivors, each re-grantable at once.  A shard with a live
        handoff token is left alone — clobbering the token would orphan
        that handoff's ack — and is lazily adopted by the next migration
        planned off the dead owner (routing places nothing on a dead
        node: until then the shard costs locality, not liveness)."""
        for shard in sorted(self.shard_map.shards_of_node(node)):
            if shard in self._handoffs:
                continue
            target = min(
                live,
                key=lambda n: (len(self.shard_map.shards_of_node(n)), n),
            )
            self.shard_map.migrate(shard, target, self._rounds_started)
            self.stats.revocations += 1
            self._trace_fault(
                f"revoke shard {shard} -> node {target}",
                shard=shard,
                node=target,
                from_node=node,
            )
            self._open_handoff(shard, ADMIN_ROUND, node, target, revoke=True)

    def _replay_owed(self, node: int) -> None:
        """Replay the node's in-flight units still owing a result, in
        round and index order: those dispatched, whose ``cl_run`` or result
        died with the node, and — a dead node is given no work — those
        still queued for it."""
        peer = self._peers[node]
        for round_state in self._inflight.values():
            # A sorted copy: replaying re-keys ``round_state.units``.
            for unit in sorted(
                round_state.units.values(), key=lambda unit: unit.uidx
            ):
                if unit.node != node or unit.done:
                    continue
                if unit.dispatched or peer.dead:
                    if peer.episode is None:
                        peer.episode = _RecoveryEpisode(started=self.now)
                    self._replay_unit(unit)

    def _replay_unit(self, unit: _Unit) -> None:
        """Re-dispatch one in-flight unit of a failed node on the live
        node with the shortest queue; the record itself moves to the new
        key (:meth:`_Unit.requeue`)."""
        node, round_state = unit.node, self._inflight[unit.round]
        target = min(
            self._live(), key=lambda n: (len(self._peers[n].queue), n)
        )
        unit.settle(done=False)
        if not unit.dispatched:
            self._peers[node].queue.remove(unit)
        del round_state.units[(node, unit.uidx)]
        unit.requeue(target, _REPLAY_BASE + round_state.replays, self.now)
        round_state.replays += 1
        round_state.units[(target, unit.uidx)] = unit
        self._peers[target].queue.append(unit)
        for owner in unit.episodes:
            episode = self._peers[owner].episode
            if episode is not None:
                episode.outstanding.add(unit)
        self.stats.ops_replayed += len(unit.ops)

    def node_rejoined(self, node: int) -> None:
        """Readmit a restarted node: clear its dead mark, replay whatever
        was dispatched to it before the crash (the crash erased it), and
        rebalance shards onto it so it carries a fair share again."""
        if not self.recovery:
            return
        peer = self._peers[node]
        peer.dead = False
        # A ping sent to the dead incarnation is never answered.
        peer.probe = None
        self.stats.rejoins += 1
        self._trace_fault(f"node {node} rejoined", node=node)
        self._replay_owed(node)
        self._rebalance_to(node)
        self._drain_gates()

    def _rebalance_to(self, node: int) -> None:
        """Administrative lease transfers bringing a rejoined node up to
        its fair shard share — the normal request/grant/ack handshake
        under the :data:`ADMIN_ROUND` sentinel."""
        live = self._live()
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
                if shard not in self._handoffs
            ]
            if not movable:
                break
            shard = max(movable)
            self.shard_map.migrate(shard, node, self._rounds_started)
            self._open_handoff(shard, ADMIN_ROUND, donor, node, revoke=False)

    def _settle_replay(self, unit: _Unit) -> None:
        """A unit's result arrived: settle every failure episode waiting
        on it (none unless it was replayed); an episode whose last replay
        settled adds its span to ``recovery_makespan``."""
        for owner in unit.episodes:
            episode = self._peers[owner].episode
            if episode is None:
                continue
            episode.outstanding.discard(unit)
            if episode.outstanding:
                continue
            self._peers[owner].episode = None
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
        """A pinged node answered, naming the units it is running: the
        probe closes, and every timer that asked since the ping went out
        reads the same answer when it re-fires."""
        peer = self._peers[message.src]
        peer.probe = None
        peer.last_pong = self.now
        peer.holds = frozenset(message.payload["holds"])

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
        # The shard's serialization token is the exactly-once guard: an
        # ack settles its handoff (timer, bookkeeping, pending_acks) only
        # while it still holds the token.  An ack whose handoff was
        # settled synthetically by _declare_dead — or that raced a
        # revocation — finds the token gone or moved on.
        handoff = self._handoffs.get(shard)
        if handoff is None or handoff.round != index:
            self._stale(f"stray lease ack for shard {shard}, round {index}")
            return
        self._settle_handoff(shard)
        # An administrative handoff (revocation fail-over or rejoin
        # rebalancing) has no round bookkeeping.
        if index != ADMIN_ROUND:
            round_state = self._inflight.get(index)
            if round_state is None:
                self._stale("stray lease ack outside its round")
                return
            round_state.pending_acks -= 1
            if self._finish_round(index):
                return
        self._drain_gates()

    def handle_cl_result(self, message: Message) -> None:
        body = message.payload
        index = body["round"]
        round_state = self._inflight.get(index)
        units = round_state.units if round_state is not None else {}
        unit = units.get((message.src, body["unit"]))
        if unit is None or unit.done:
            self._stale(
                f"stray or duplicate result from node {message.src} "
                f"in round {index}"
            )
            return
        self.responses.update(body["responses"])
        round_state.pending -= 1
        unit.settle(done=True)
        self._settle_replay(unit)
        if not self._finish_round(index):
            self._drain_gates()

    @property
    def idle(self) -> bool:
        return not self._inflight
