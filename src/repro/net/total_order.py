"""Leader-based total-order broadcast (the "blockchain" baseline).

A deliberately standard quorum protocol in the PBFT/HotStuff family, reduced
to its message pattern (the benchmarks compare *structure*: phases, quorums,
message counts, sequencer contention — not cryptography):

* a client node submits a transaction to the current leader (``to_submit``);
* the leader assigns the next global sequence number and broadcasts
  ``to_propose(seq, txs)`` (transactions submitted while a proposal is in
  flight are batched into the next one);
* every node broadcasts ``to_prepare(seq, digest)``;
* on ``2f + 1`` matching prepares, a node broadcasts ``to_commit``;
* on ``2f + 1`` matching commits, a node delivers the batch — in global
  sequence order, buffering gaps.

Every transaction thus costs the full 3-phase, ``O(n²)``-message pattern and
waits for the *single global sequencer* — the synchronization cost the paper
argues is unnecessary for most token operations.

This is also the reference of :class:`repro.net.team_lanes.TeamLane`: a lane
runs this protocol in a private event loop without message objects, and
``tests/sync/test_lane_reference.py`` holds every lane delivery time,
makespan and bill to a group of these replicas on a seeded
``Network(UniformLatency(0.5, 1.5))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import NetworkError
from repro.net.network import Message, Network
from repro.net.node import Node

#: Delivery callback: (global sequence, list of transactions).
TODeliverFn = Callable[[int, list[Any]], None]


def _digest(value: Any) -> str:
    return repr(value)


@dataclass
class _SlotState:
    proposed: Any = None
    prepared: bool = False
    committed: bool = False
    delivered: bool = False
    prepares: dict[str, set[int]] = field(default_factory=dict)
    commits: dict[str, set[int]] = field(default_factory=dict)
    payloads: dict[str, Any] = field(default_factory=dict)


class TotalOrderNode(Node):
    """One replica of the leader-based total-order protocol."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        num_nodes: int,
        deliver: TODeliverFn | None = None,
        leader: int = 0,
        max_faulty: int | None = None,
        max_batch: int = 64,
    ) -> None:
        super().__init__(node_id, network)
        self.n = num_nodes
        self.f = (num_nodes - 1) // 3 if max_faulty is None else max_faulty
        if self.n < 3 * self.f + 1:
            raise NetworkError("total order needs n >= 3f+1")
        self.leader = leader
        self.max_batch = max_batch
        self._app_deliver = deliver
        self.delivered: list[tuple[int, list[Any]]] = []
        # Leader state.
        self._pending: list[Any] = []
        self._next_seq = 0
        self._in_flight = 0
        # Replica state.
        self._slots: dict[int, _SlotState] = {}
        self._next_deliver = 0
        self._ready: dict[int, list[Any]] = {}

    # ------------------------------------------------------------------

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    @property
    def is_leader(self) -> bool:
        return self.node_id == self.leader

    def submit(self, tx: Any) -> None:
        """Client entry point: forward a transaction to the leader."""
        self.send(self.leader, "to_submit", tx)

    # -- leader -------------------------------------------------------------

    def handle_to_submit(self, message: Message) -> None:
        if not self.is_leader:
            # A stale client view; re-forward to the true leader.
            self.send(self.leader, "to_submit", message.payload)
            return
        self._pending.append(message.payload)
        self._maybe_propose()

    def _maybe_propose(self) -> None:
        # One proposal pipeline slot at a time keeps the sequencer's
        # contention visible in latency (the point of the baseline); higher
        # pipelining would only shift, not remove, the bottleneck.
        if not self._pending or self._in_flight > 0:
            return
        batch, self._pending = (
            self._pending[: self.max_batch],
            self._pending[self.max_batch :],
        )
        seq = self._next_seq
        self._next_seq += 1
        self._in_flight += 1
        self.broadcast("to_propose", {"seq": seq, "txs": batch})

    # -- replicas -------------------------------------------------------------

    def _slot(self, seq: int) -> _SlotState:
        slot = self._slots.get(seq)
        if slot is None:  # allocate on a miss only: every message probes
            slot = self._slots[seq] = _SlotState()
        return slot

    def handle_to_propose(self, message: Message) -> None:
        if message.src != self.leader:
            return  # only the leader sequences
        body = message.payload
        seq, txs = body["seq"], body["txs"]
        slot = self._slot(seq)
        if slot.proposed is not None:
            return
        slot.proposed = txs
        key = _digest(txs)
        slot.payloads.setdefault(key, txs)
        self.broadcast("to_prepare", {"seq": seq, "digest": key})
        if slot.committed and seq not in self._ready and not slot.delivered:
            # Commits quorumed before the proposal reached us; now that the
            # payload is known the slot can be delivered.
            self._ready[seq] = txs
            self._drain()

    def handle_to_prepare(self, message: Message) -> None:
        body = message.payload
        seq, key = body["seq"], body["digest"]
        slot = self._slot(seq)
        # A vote set is built on a miss only (``setdefault(key, set())``
        # would build a throwaway set per vote).
        voters = slot.prepares.get(key)
        if voters is None:
            voters = slot.prepares[key] = set()
        voters.add(message.src)
        if len(voters) >= self.quorum and not slot.prepared:
            slot.prepared = True
            self.broadcast("to_commit", {"seq": seq, "digest": key})

    def handle_to_commit(self, message: Message) -> None:
        body = message.payload
        seq, key = body["seq"], body["digest"]
        slot = self._slot(seq)
        voters = slot.commits.get(key)
        if voters is None:
            voters = slot.commits[key] = set()
        voters.add(message.src)
        if len(voters) >= self.quorum and not slot.committed:
            slot.committed = True
            payload = slot.payloads.get(key)
            if payload is None and slot.proposed is not None:
                payload = slot.proposed
            if payload is None:
                return  # wait for the proposal to carry the transactions
            self._ready[seq] = payload
            self._drain()

    def _drain(self) -> None:
        while self._next_deliver in self._ready:
            seq = self._next_deliver
            txs = self._ready.pop(seq)
            slot = self._slot(seq)
            slot.delivered = True
            self._next_deliver += 1
            self.delivered.append((seq, txs))
            if self._app_deliver is not None:
                self._app_deliver(seq, txs)
            if self.is_leader:
                self._in_flight = max(0, self._in_flight - 1)
                self._maybe_propose()
