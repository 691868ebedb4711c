"""A cluster worker: the engine's op-granular scheduler as a network node.

Each :class:`ClusterNode` owns a set of account shards and executes the
*dispatch units* the router forwards to it.  A unit is one conflict-graph
component (or the residual set of the node's singletons for a round),
sent as a single ``cl_run`` that carries its ops *and its plan* (the
component's :class:`~repro.engine.conflict_graph.ComponentDAG`, over
positions in ``ops``, exactly as the router's window plan built it;
``None`` for edge-free ops).  The node executes the plan as shipped — it
classifies nothing and derives nothing: the DAG's ``preds`` and
``priorities`` feed the scheduler, its ``critical_path`` and ``width``
the bill (the tests re-derive each shipped plan from its ops, beside the
network) — and applies the ops as shipped, in submission order, whatever
their placement (``engine/shard.py``'s module docstring argues why).
The router gates each unit individually, and the node runs units
incrementally on a *persistent lane timeline* — the list scheduler
(:func:`~repro.engine.shard.dag_list_schedule`, in ``engine/shard.py``'s
static order) places each arriving unit's ops on whichever lanes free up
first, so one unit blocked behind its sync lane or a cross-round
footprint conflict does not hold up everything else routed there.  Units
of one round are distinct components (statically commuting) and
cross-round conflicts are dispatch-gated at the router, so any unit
interleaving stays serially equivalent.

Owner-local execution involves no coordination at all — the node never
sends or receives a lease or consensus message for it; its only traffic is
the forward in and the reply out.  The lease protocol surfaces here as
``cl_lease_request`` (hand the shard away) and one adoption path for
``cl_lease_grant`` / ``cl_lease_revoke`` (adopt it and ack to the router).

A unit carrying a contended component waits for its synchronization lane
first: its ``cl_run`` carries ``sync_ready``, the absolute virtual
completion time of the team/global lane ordering the component
(:mod:`repro.sync`), and the node charges the remainder to its bill
(``sync_wait_time``) before executing — so a unit whose race resolved on
a small, fast team lane starts earlier than one stuck behind the shared
global lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.config import ClusterConfig
from repro.engine.classifier import OpClassifier
from repro.engine.conflict_graph import ComponentDAG
from repro.engine.mempool import PendingOp
from repro.engine.rounds import WallAdapters
from repro.engine.shard import dag_list_schedule, lane_fill
from repro.errors import ClusterError
from repro.net.network import Message, Network
from repro.net.node import Node

from repro.cluster.stats import NodeBill

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceRecorder

#: Applies one operation to the authoritative state; returns the response.
ApplyFn = Callable[[PendingOp], Any]


@dataclass(slots=True)
class _NodeUnit:
    """One dispatch unit as the node knows it.  The record is created by
    whichever message names the unit first — a lease grant may overtake
    the ``cl_run`` it unblocks — so ``ops`` is ``None`` until the
    ``cl_run`` lands."""

    ops: list[PendingOp] | None = None
    #: The router's ``plan.chain_dag(k)`` (positions in ``ops``), or None.
    dag: ComponentDAG | None = None
    #: Lease grants the unit must wait for / has received.
    leases_needed: int = 0
    leases_granted: int = 0
    #: Absolute completion (simulator clock) of the sync lane the unit
    #: must wait out first.
    sync_ready: float = 0.0
    #: The execution timer while the unit runs — what a crash cancels.
    timer: Any = None
    #: When the unit, its ops in hand, first stalled on a missing lease
    #: grant — traced as ``lease_wait`` when it finally runs.
    blocked_since: float | None = None


class ClusterNode(Node):
    """One shard-owning worker of the token-processing cluster."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        router_id: int,
        apply_fn: ApplyFn,
        classifier: OpClassifier,
        config: ClusterConfig,
        tracer: TraceRecorder | None = None,
    ) -> None:
        super().__init__(node_id, network)
        self.router_id = router_id
        self.apply_fn = apply_fn
        self.classifier = classifier
        self.scheduler = WallAdapters(classifier)
        #: Persistent lane timeline (absolute virtual times), and the
        #: rounds this node has executed at least one unit of.
        self._lane_free = [0.0] * config.lanes_per_node
        self._unit_rounds: set[int] = set()
        self.bill = NodeBill(node_id=node_id)
        self.owned_shards: set[int] = set()
        #: Shards lost in a crash and not given back or adopted since.
        self._shed: set[int] = set()
        #: ``(round, unit index)`` -> the unit, from the first message
        #: that names it until its result is sent.
        self._units: dict[tuple[int, int], _NodeUnit] = {}
        #: Optional observability hook (:mod:`repro.obs`); ``None``
        #: records nothing.
        self.tracer = tracer

    # -- crash/restart lifecycle ------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state: cancel every in-flight execution
        timer — a crash loses exactly the work that had not reached its
        virtual completion time — and forget buffered units, lease
        bookkeeping, and owned shards.  Committed work (applied before
        the crash) is untouched — application and result reporting happen
        in one simulator event, so there is no window where state mutated
        but the result is not on the wire."""
        for unit in self._units.values():
            if unit.timer is not None:
                unit.timer.cancel()
        self._units.clear()
        self._shed |= self.owned_shards
        self.owned_shards.clear()
        self.bill.crashes += 1

    def restart(self, owned_shards: set[int] | None = None) -> None:
        """Rejoin as a fresh process: empty lane timeline, no in-flight
        work, shard ownership resynchronized to the router's view (the
        shard map is the authoritative record; whatever the router
        revoked while this node was down is gone)."""
        self._lane_free = [0.0] * len(self._lane_free)
        if owned_shards is not None:
            self.owned_shards = set(owned_shards)
        self._shed -= self.owned_shards
        self.bill.restarts += 1

    # -- unit execution --------------------------------------------------

    def _unit(self, body: dict) -> tuple[tuple[int, int], _NodeUnit]:
        key = (body["round"], body["unit"])
        unit = self._units.get(key) or self._units.setdefault(key, _NodeUnit())
        return key, unit

    def handle_cl_run(self, message: Message) -> None:
        body = message.payload
        ops, dag = body["ops"], body["dag"]
        if not ops:
            raise ClusterError("cl_run announced an empty unit")
        # The plan indexes the ops by position: a malformed one fails
        # here, at the message, not later as a wrong schedule.  Each pred
        # position lies below its own, so submission order stays a
        # topological order.
        previous = ops[0].seq
        for op in ops[1:]:
            if op.seq <= previous:
                raise ClusterError("cl_run ops are not in ascending seq order")
            previous = op.seq
        if dag is not None and not (
            isinstance(dag, ComponentDAG)
            and dag.size == len(ops) == len(dag.priorities)
            and all(
                0 <= p < k for k, below in enumerate(dag.preds) for p in below
            )
        ):
            raise ClusterError("cl_run dag does not span the unit's ops")
        key, unit = self._unit(body)
        if unit.ops is not None:
            raise ClusterError(
                f"node {self.node_id} received a second cl_run for unit {key}"
            )
        # The unit's ops ride inside the announcement (one message per
        # unit); the bill still counts every op forward received.
        unit.ops, unit.dag = ops, dag
        unit.leases_needed = body["leases"]
        unit.sync_ready = body["sync_ready"]
        self.bill.forwards_received += len(unit.ops)
        self._maybe_run_unit(key, unit)

    def _maybe_run_unit(self, key: tuple[int, int], unit: _NodeUnit) -> None:
        """Run one dispatch unit (a component, or a round's singletons)
        on the persistent lane timeline as soon as its ops and every
        lease grant it needs have arrived.

        Units interleave freely on the node: units of one round are
        distinct components (statically commuting), and conflicting units
        of different rounds are dispatch-gated at the router, so the lane
        timeline only ever overlaps commuting work.  The op-granular list
        scheduler places each op on the earliest lane its component
        predecessors allow, continuing wherever earlier units left the
        lanes.
        """
        if unit.ops is None or unit.timer is not None:
            return
        if unit.leases_granted < unit.leases_needed:
            if unit.blocked_since is None:
                unit.blocked_since = self.now
            return
        ops = unit.ops
        # The unit's contended ops execute only after their sync lane
        # committed an order; the router sends the lane's absolute
        # completion, so the unit pays only the remainder.
        ready = max(self.now, unit.sync_ready)
        self.bill.sync_wait_time += max(0.0, unit.sync_ready - self.now)
        # The router's plan: one DAG (task ``k`` is ``ops[k]``), or edge-free
        # ops that ``engine/shard.py``'s lane fill places.
        n, dag = len(ops), unit.dag
        if dag is None:
            placed = lane_fill(n, self._lane_free, ready)
        else:
            placed = dag_list_schedule(
                dag.preds,
                dag.priorities,
                self._lane_free,
                floors=[ready] * n,
            )
            path, bill = dag.critical_path, self.bill
            bill.dag_chain_ops += n
            bill.dag_critical_ops += path
            bill.max_dag_critical_path = max(bill.max_dag_critical_path, path)
            bill.max_dag_width = max(bill.max_dag_width, dag.width)
        finish = max([f for _, f, _ in placed])
        # Bill the unit's execution span (first op start -> last finish),
        # not its wall time since arrival — time spent queued behind
        # other units' lane occupancy is not this unit's work.
        started = min([start for start, _, _ in placed])
        if self.tracer is not None:
            self._trace_unit(key, unit, placed, ready, finish)
        unit.timer = self.schedule(
            finish - self.now,
            lambda: self._finish_unit(key, unit, finish - started),
        )

    def _trace_unit(
        self,
        key: tuple[int, int],
        unit: _NodeUnit,
        placed: list[tuple],
        ready: float,
        finish: float,
    ) -> None:
        """Record one dispatch unit's placement on the persistent lane
        timeline.  The list scheduler's times are already absolute, so
        spans copy them verbatim; the unit's sync-lane remainder and any
        lease wait ride (backward-walk order) on the ops floored at
        ``ready`` — ops floored by lane occupancy instead overlapped
        those waits, which therefore cost the timeline nothing."""
        tracer = self.tracer
        assert tracer is not None
        now = self.now
        round_index, unit_index = key
        lease_wait = (
            0.0 if unit.blocked_since is None else now - unit.blocked_since
        )
        stalls = tuple(
            (category, amount)
            for category, amount in (
                ("sync_wait", ready - now),
                ("lease_wait", lease_wait),
            )
            if amount > 0
        )
        for op, (start, end, lane) in zip(unit.ops, placed):
            tracer.span(
                f"node{self.node_id}.lane{lane}",
                f"op {op.seq}",
                "execute",
                start,
                end,
                stalls=stalls if start == ready else (),
                args={
                    "seq": op.seq,
                    "pid": op.pid,
                    "round": round_index,
                    "unit": unit_index,
                },
            )
            tracer.op_stage(op.seq, "schedule", start)
            tracer.op_stage(op.seq, "execute", start)
            tracer.op_commit(op.seq, finish)

    def _finish_unit(
        self, key: tuple[int, int], unit: _NodeUnit, busy: float
    ) -> None:
        """Apply the unit's ops as shipped and report their responses
        (state mutates at the unit's virtual completion)."""
        responses = {op.seq: self.apply_fn(op) for op in unit.ops}
        round_index, unit_index = key
        del self._units[key]
        self.bill.ops_executed += len(responses)
        self.bill.units_executed += 1
        if round_index not in self._unit_rounds:
            self._unit_rounds.add(round_index)
            self.bill.rounds_active += 1
        self.bill.busy_time += busy
        self.bill.results_sent += 1
        self.send(
            self.router_id,
            "cl_result",
            {"round": round_index, "unit": unit_index, "responses": responses},
        )

    # -- lease protocol ---------------------------------------------------

    def handle_cl_lease_request(self, message: Message) -> None:
        """Hand the shard's lease to the announced new owner."""
        body = message.payload
        shard = body["shard"]
        if shard not in self.owned_shards:
            # Sent to an earlier incarnation: the lease timer hands it over.
            if shard in self._shed:
                return
            raise ClusterError(
                f"node {self.node_id} asked to grant shard {shard} "
                "it does not own"
            )
        self.owned_shards.discard(shard)
        self.bill.leases_granted += 1
        if self.tracer is not None:
            self.tracer.instant(
                f"node{self.node_id}",
                f"lease shard {shard} -> node {body['new_owner']}",
                self.now,
                args={"round": body["round"]},
            )
        grant = {"shard": shard, "round": body["round"]}
        if "unit" in body:
            # The grant unblocks exactly the unit whose chain triggered
            # the migration (administrative transfers name none).
            grant["unit"] = body["unit"]
        self.send(body["new_owner"], "cl_lease_grant", grant)

    def handle_cl_lease_grant(self, message: Message) -> None:
        """The one adoption path: a shard its previous owner handed over,
        or (``cl_lease_revoke``) one the router reassigned unilaterally —
        no handover from a failed owner is possible — whose ``round`` /
        ``unit`` make it double as the grant the named unit was waiting
        for (its granter died mid-handoff).  Adopt, bill, trace, ack, so
        the router can serialize further handoffs of the shard behind
        this one, then unblock the unit the handoff names; an
        administrative one (``round < 0``: fail-over revocation, rejoin
        rebalancing) names none."""
        body = message.payload
        shard = body["shard"]
        self.owned_shards.add(shard)
        self._shed.discard(shard)
        self.bill.leases_acquired += 1
        if self.tracer is not None:
            event = f"lease shard {shard} adopted"
            args = {"round": body["round"]}
            if message.type == "cl_lease_revoke":
                from_node = body["from_node"]
                event = f"lease shard {shard} revoked from node {from_node}"
                args = {"shard": shard, "from_node": from_node}
            self.tracer.instant(
                f"node{self.node_id}", event, self.now, args=args
            )
        ack = {"shard": shard, "round": body["round"]}
        self.send(self.router_id, "cl_lease_ack", ack)
        if body["round"] < 0:
            return
        key, unit = self._unit(body)
        unit.leases_granted += 1
        self._maybe_run_unit(key, unit)

    handle_cl_lease_revoke = handle_cl_lease_grant

    def handle_cl_ping(self, message: Message) -> None:
        """Answer the router's liveness probe with the units this node is
        running: ops placed on its lanes, execution timer armed.  A unit
        still waiting for its ``cl_run`` or a lease grant is not running,
        so the router retransmits it."""
        holds = [
            key for key, unit in self._units.items() if unit.timer is not None
        ]
        self.send(message.src, "cl_pong", {"holds": holds})
