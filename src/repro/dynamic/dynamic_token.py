"""The §7 future-work protocol: a consensus-free token network with
*dynamic, per-account* synchronization.

"Such protocols could replace the consensus layer of traditional blockchain
platforms with a more efficient broadcast method … This would generally work
under asynchrony and yet provide an atomic broadcast functionality among
every account owner and its enabled spenders." (paper, §7)

Design (crash-tolerant dissemination via Bracha BRB; the group round is the
synchronization the theory prescribes):

* Every node replicates the token state.  Account ``a`` is owned by process
  ``a``, hosted on node ``a`` (the paper's ω bijection).
* **Owner operations** (``transfer``, ``approve``) need no cross-account
  synchronization (the AT consensus-number-1 regime): the owner validates
  against its replica, assigns the next sequence number of its *account log*,
  and disseminates the operation with FIFO reliable broadcast.
* **transferFrom** needs agreement only within ``σ_q(a)`` (Theorem 2/3): the
  spender sends the request to the account's owner, which runs one *group
  ordering round* — propose to every current group member, await their acks —
  then validates, sequences, and disseminates like an owner operation.  Cost:
  ``2·(|σ_q(a)| − 1)`` extra messages and two extra message delays, growing
  with the synchronization level ``k`` but **independent of the network
  size ``n``**.
* Replicas apply each account's log in FIFO order.  Debits of account ``a``
  and all its allowance updates live in ``a``'s log, so they are identically
  ordered everywhere; credits commute.  Balances may go transiently negative
  on a replica that applies a debit before the credit that funded it —
  the classic eventual-consistency artifact of broadcast payments (FastPay/
  Astro) — but all replicas converge to identical, non-negative states once
  the network drains, which the tests assert.

Double-spending is prevented exactly as the theory says it must be: by the
total order *within* each account's log (owner sequencing + FIFO broadcast),
never by a global order across accounts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.dynamic.sync_tracker import (
    GroupSizeTracker,
    ReplicaTokenState,
    sync_group,
)
from repro.errors import ProtocolError
from repro.net.network import Message, Network
from repro.net.node import Node
from repro.net.reliable_broadcast import FifoReliableBroadcast
from repro.objects.erc20 import assign_allowance


@dataclass(frozen=True, slots=True)
class TokenOp:
    """One sequenced token operation, as disseminated in an account log."""

    kind: str  # "transfer" | "approve" | "transferFrom"
    account: int  # the source/approving account whose log carries the op
    actor: int  # the process performing the operation
    args: tuple[int, ...]
    op_id: int

    def __repr__(self) -> str:
        rendered = ",".join(map(str, self.args))
        return f"{self.kind}[{self.op_id}]@{self.account}({rendered})"


@dataclass
class OpRecord:
    """Lifecycle record of one submitted operation (client-side view)."""

    op_id: int
    kind: str
    submitted_at: float
    completed_at: float | None = None
    response: Any = None

    @property
    def latency(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def complete(self, now: float, response: Any) -> None:
        self.completed_at, self.response = now, response


@dataclass
class _PendingGroupRound:
    op: TokenOp
    submitted_at: float
    requester: int
    awaiting: set[int] = field(default_factory=set)


_op_ids = itertools.count(1)


class DynamicTokenNode(Node):
    """One replica/participant of the dynamic-synchronization token network."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        num_nodes: int,
        supply: int,
        deployer: int = 0,
        track_groups: bool = False,
    ) -> None:
        super().__init__(node_id, network)
        self.n = num_nodes
        self.state = ReplicaTokenState.create(num_nodes, deployer, supply)
        self.fifo = FifoReliableBroadcast(
            self, num_nodes, self._apply_delivered
        )
        #: Client-side records of operations submitted at this node.
        self.records: dict[int, OpRecord] = {}
        #: Ops applied by this replica, in application order.
        self.applied: list[tuple[float, TokenOp]] = []
        self._group_rounds: dict[int, _PendingGroupRound] = {}
        #: Own-account ops sequenced (broadcast) but not yet applied locally.
        #: Validation must count these, or rapid-fire submissions would be
        #: checked against a stale balance and overdraw the account.
        self._pending_own: list[TokenOp] = []
        self.tracker = GroupSizeTracker() if track_groups else None

    # ------------------------------------------------------------------
    # Client API (called on the node of the acting process).
    # ------------------------------------------------------------------

    def _submit(
        self, kind: str, account: int, args: tuple[int, ...]
    ) -> tuple[TokenOp, OpRecord]:
        """A fresh op by this node's process, and its client record."""
        op = TokenOp(kind, account, self.node_id, args, next(_op_ids))
        record = OpRecord(op.op_id, kind, submitted_at=self.now)
        self.records[op.op_id] = record
        return op, record

    def submit_transfer(self, dest: int, value: int) -> OpRecord:
        """Owner operation: transfer from this node's own account."""
        op, record = self._submit("transfer", self.node_id, (dest, value))
        self._finalize_own_op(op, record)
        return record

    def submit_approve(self, spender: int, value: int) -> OpRecord:
        """Owner operation: set this account's allowance for ``spender``."""
        op, record = self._submit("approve", self.node_id, (spender, value))
        self._finalize_own_op(op, record)
        return record

    def submit_transfer_from(
        self, source: int, dest: int, value: int
    ) -> OpRecord:
        """Spender operation: route through the source account's owner for
        group-ordered sequencing."""
        op, record = self._submit("transferFrom", source, (source, dest, value))
        if source == self.node_id:
            # Owner spending via its own allowance path: still sequenced by
            # itself; run the group round locally.
            self._start_group_round(op, requester=self.node_id)
        else:
            self.send(source, "tf_request", {"op": op})
        return record

    # ------------------------------------------------------------------
    # Owner-side sequencing.
    # ------------------------------------------------------------------

    def _effective_view(self) -> ReplicaTokenState:
        """The owner's replica state with its sequenced-but-unapplied own
        account ops applied speculatively.

        The owner sequences every debit of its own account, so this view is
        conservative (all own debits counted; incoming credits only as they
        settle) — a validated operation can never overdraw the account
        globally.
        """
        if not self._pending_own:
            return self.state
        view = self.state.copy()
        for op in self._pending_own:
            _apply_op(view, op)
        return view

    def _validate(self, op: TokenOp) -> bool:
        """Owner-side validation against the effective owner view."""
        view = self._effective_view()
        if op.kind == "transfer":
            dest, value = op.args
            return value >= 0 and view.balances[op.account] >= value
        if op.kind == "approve":
            spender, value = op.args
            return value >= 0
        if op.kind == "transferFrom":
            source, dest, value = op.args
            return (
                value >= 0
                and view.balances[source] >= value
                and view.allowances[source].get(op.actor, 0) >= value
            )
        raise ProtocolError(f"unknown operation kind {op.kind!r}")

    def _finalize_own_op(self, op: TokenOp, record: OpRecord) -> None:
        if not self._validate(op):
            record.complete(self.now, False)
            return
        self._commit_group_op(op, self.node_id)

    def handle_tf_request(self, message: Message) -> None:
        op: TokenOp = message.payload["op"]
        if op.account != self.node_id:
            raise ProtocolError(
                f"node {self.node_id} received a tf_request for account "
                f"{op.account}"
            )
        self._start_group_round(op, requester=message.src)

    def _start_group_round(self, op: TokenOp, requester: int) -> None:
        # Fast reject: spender not enabled or obviously invalid.
        if not self._validate(op):
            self._reject(op, requester)
            return
        group = sync_group(self.state, self.node_id)
        others = sorted(group - {self.node_id})
        if not others:
            # Degenerate group (owner only): no coordination needed — the
            # consensus-number-1 regime.
            self._commit_group_op(op, requester)
            return
        round_state = _PendingGroupRound(
            op=op,
            submitted_at=self.now,
            requester=requester,
            awaiting=set(others),
        )
        self._group_rounds[op.op_id] = round_state
        for member in others:
            self.send(member, "group_propose", {"op": op})

    def handle_group_propose(self, message: Message) -> None:
        op: TokenOp = message.payload["op"]
        # Members acknowledge the owner's proposed ordering of the spend.
        self.send(message.src, "group_ack", {"op_id": op.op_id})

    def handle_group_ack(self, message: Message) -> None:
        op_id = message.payload["op_id"]
        round_state = self._group_rounds.get(op_id)
        if round_state is None:
            return  # stale ack (round already completed)
        round_state.awaiting.discard(message.src)
        if not round_state.awaiting:
            del self._group_rounds[op_id]
            # Re-validate at commit time: state may have moved during the round.
            if self._validate(round_state.op):
                self._commit_group_op(round_state.op, round_state.requester)
            else:
                self._reject(round_state.op, round_state.requester)

    def _commit_group_op(self, op: TokenOp, requester: int) -> None:
        self._pending_own.append(op)
        self.fifo.broadcast({"op": op})

    def _reject(self, op: TokenOp, requester: int) -> None:
        if requester != self.node_id:
            self.send(requester, "tf_reject", {"op_id": op.op_id})
        elif op.op_id in self.records:
            self.records[op.op_id].complete(self.now, False)

    def handle_tf_reject(self, message: Message) -> None:
        record = self.records.get(message.payload["op_id"])
        if record is not None:
            record.complete(self.now, False)

    # ------------------------------------------------------------------
    # Replica application (FIFO-BRB delivery path).
    # ------------------------------------------------------------------

    def handle_brb_send(self, message: Message) -> None:
        self.fifo.handle_send(message)

    def handle_brb_echo(self, message: Message) -> None:
        self.fifo.handle_echo(message)

    def handle_brb_ready(self, message: Message) -> None:
        self.fifo.handle_ready(message)

    def _apply_delivered(self, sender: int, seq: int, payload: Any) -> None:
        op: TokenOp = payload["op"]
        if sender != op.account:
            raise ProtocolError(
                f"op for account {op.account} broadcast by node {sender}"
            )
        _apply_op(self.state, op)
        if op.account == self.node_id:
            # Our own sequenced op settled locally; it is no longer pending.
            self._pending_own = [
                pending
                for pending in self._pending_own
                if pending.op_id != op.op_id
            ]
        self.applied.append((self.now, op))
        if self.tracker is not None:
            self.tracker.record(self.now, self.state)
        record = self.records.get(op.op_id)
        if record is not None and record.completed_at is None:
            record.complete(self.now, True)


def _apply_op(state: ReplicaTokenState, op: TokenOp) -> None:
    """Apply one sequenced operation to a replica state (in place)."""
    if op.kind == "transfer":
        dest, value = op.args
        state.balances[op.account] -= value
        state.balances[dest] += value
    elif op.kind == "approve":
        spender, value = op.args
        assign_allowance(state.allowances[op.account], spender, value)
    elif op.kind == "transferFrom":
        source, dest, value = op.args
        row = state.allowances[source]
        assign_allowance(row, op.actor, row.get(op.actor, 0) - value)
        state.balances[source] -= value
        state.balances[dest] += value
    else:  # pragma: no cover - guarded upstream
        raise ProtocolError(f"unknown operation kind {op.kind!r}")


@dataclass
class DynamicNetworkStats:
    """Aggregate measurements for one dynamic-network run."""

    operations: int
    accepted: int
    rejected: int
    messages: int
    messages_per_op: float
    mean_latency: float
    p99_latency: float
    makespan: float
    by_type: dict[str, int] = field(default_factory=dict)


def measure_dynamic(nodes: list[DynamicTokenNode]) -> DynamicNetworkStats:
    """Collect per-operation latencies (submit → applied/rejected at the
    submitting node) and network counters after a run."""
    latencies: list[float] = []
    accepted = 0
    rejected = 0
    for node in nodes:
        for record in node.records.values():
            if record.latency is None:
                continue
            latencies.append(record.latency)
            if record.response:
                accepted += 1
            else:
                rejected += 1
    latencies.sort()
    operations = len(latencies)
    network = nodes[0].network
    makespan = max(
        (time for node in nodes for time, _ in node.applied), default=0.0
    )
    return DynamicNetworkStats(
        operations=operations,
        accepted=accepted,
        rejected=rejected,
        messages=network.stats.messages_sent,
        messages_per_op=(
            network.stats.messages_sent / operations if operations else 0.0
        ),
        mean_latency=sum(latencies) / operations if operations else 0.0,
        p99_latency=(
            latencies[min(operations - 1, int(0.99 * operations))]
            if operations
            else 0.0
        ),
        makespan=makespan,
        by_type=dict(network.stats.by_type),
    )


def assert_converged(nodes: list[DynamicTokenNode]) -> None:
    """All replicas hold identical, non-negative final states (called after
    the simulator drains); raises :class:`ProtocolError` otherwise."""
    snapshots = {node.state.snapshot() for node in nodes}
    if len(snapshots) != 1:
        raise ProtocolError(
            f"replicas diverged: {len(snapshots)} distinct final states"
        )
    balances, _allowances = next(iter(snapshots))
    if any(balance < 0 for balance in balances):
        raise ProtocolError(f"negative final balance: {balances}")
