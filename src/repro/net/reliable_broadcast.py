"""Byzantine reliable broadcast (Bracha) and a FIFO ordering layer.

The consensus-free payment systems the paper points to ([6] Collins et al.)
rest on Byzantine reliable broadcast rather than total order.  This module
implements the classic Bracha protocol for ``n = 3f + 1`` nodes:

* the sender broadcasts ``SEND(m)``;
* on the first ``SEND`` for an instance, a node broadcasts ``ECHO(m)``;
* on ``2f + 1`` matching ``ECHO`` s — or ``f + 1`` matching ``READY`` s — a
  node broadcasts ``READY(m)`` (once);
* on ``2f + 1`` matching ``READY`` s, a node *delivers* ``m``.

Guarantees (with at most ``f`` Byzantine nodes): validity (a correct sender's
message is delivered), consistency (no two correct nodes deliver different
messages for the same instance — equivocation is filtered by the quorum
intersection), and totality (if one correct node delivers, all do).

:class:`FifoReliableBroadcast` adds per-sender FIFO order by buffering
deliveries until all predecessors are delivered — the "source ordering" that
broadcast-based payment systems need for per-account operation logs.

Message complexity per broadcast: ``n`` SEND + ``n²`` ECHO + ``n²`` READY
— quadratic but *leaderless and concurrent across instances*, which is
exactly the structural advantage over total-order protocols that the
benchmarks quantify.
"""

from __future__ import annotations

from typing import Any, Callable

from repro._records import field, record
from repro.errors import NetworkError
from repro.net.network import Message, Network
from repro.net.node import Node

#: Delivery callback: (sender, sequence_number, payload).
DeliverFn = Callable[[int, int, Any], None]


def _digest(value: Any) -> str:
    """A stable comparison key for payload equality under quorum counting."""
    return repr(value)


@record
class _Instance:
    """Per-(sender, seq) broadcast instance state."""

    echoed: bool = False
    readied: bool = False
    delivered: bool = False
    echoes: dict[str, set[int]] = field(default_factory=dict)
    readies: dict[str, set[int]] = field(default_factory=dict)
    payloads: dict[str, Any] = field(default_factory=dict)


class BrachaBroadcast:
    """Bracha reliable broadcast endpoint embedded in a :class:`Node`.

    The owner node must route messages of types ``brb_send``, ``brb_echo``
    and ``brb_ready`` to :meth:`handle_send` / :meth:`handle_echo` /
    :meth:`handle_ready`; :class:`ReliableBroadcastNode` below does this
    wiring for standalone use.
    """

    def __init__(
        self,
        node: Node,
        num_nodes: int,
        deliver: DeliverFn,
        max_faulty: int | None = None,
    ) -> None:
        self.node = node
        self.n = num_nodes
        self.f = (num_nodes - 1) // 3 if max_faulty is None else max_faulty
        if self.n < 3 * self.f + 1:
            raise NetworkError(
                f"Bracha broadcast needs n >= 3f+1; got n={self.n}, f={self.f}"
            )
        self.deliver = deliver
        self._instances: dict[tuple[int, int], _Instance] = {}
        self._next_seq = 0

    # ------------------------------------------------------------------

    def _instance(self, sender: int, seq: int) -> _Instance:
        return self._instances.setdefault((sender, seq), _Instance())

    @property
    def echo_quorum(self) -> int:
        return 2 * self.f + 1

    @property
    def ready_quorum(self) -> int:
        return 2 * self.f + 1

    @property
    def ready_amplification(self) -> int:
        return self.f + 1

    # ------------------------------------------------------------------

    def broadcast(self, payload: Any) -> int:
        """Reliably broadcast ``payload``; returns the instance sequence."""
        seq = self._next_seq
        self._next_seq += 1
        self.node.broadcast(
            "brb_send",
            {"sender": self.node.node_id, "seq": seq, "value": payload},
        )
        return seq

    # -- handlers -----------------------------------------------------------

    def handle_send(self, message: Message) -> None:
        body = message.payload
        sender, seq, value = body["sender"], body["seq"], body["value"]
        if message.src != sender:
            return  # only the original sender may open its own instance
        instance = self._instance(sender, seq)
        if instance.echoed:
            return
        instance.echoed = True
        self.node.broadcast(
            "brb_echo", {"sender": sender, "seq": seq, "value": value}
        )

    def handle_echo(self, message: Message) -> None:
        body = message.payload
        sender, seq, value = body["sender"], body["seq"], body["value"]
        instance = self._instance(sender, seq)
        key = _digest(value)
        instance.payloads.setdefault(key, value)
        voters = instance.echoes.setdefault(key, set())
        voters.add(message.src)
        if len(voters) >= self.echo_quorum and not instance.readied:
            instance.readied = True
            self.node.broadcast(
                "brb_ready", {"sender": sender, "seq": seq, "value": value}
            )

    def handle_ready(self, message: Message) -> None:
        body = message.payload
        sender, seq, value = body["sender"], body["seq"], body["value"]
        instance = self._instance(sender, seq)
        key = _digest(value)
        instance.payloads.setdefault(key, value)
        voters = instance.readies.setdefault(key, set())
        voters.add(message.src)
        if len(voters) >= self.ready_amplification and not instance.readied:
            instance.readied = True
            self.node.broadcast(
                "brb_ready", {"sender": sender, "seq": seq, "value": value}
            )
        if len(voters) >= self.ready_quorum and not instance.delivered:
            instance.delivered = True
            self.deliver(sender, seq, instance.payloads[key])


class FifoReliableBroadcast:
    """Per-sender FIFO layer over :class:`BrachaBroadcast`.

    Buffers out-of-order deliveries so the application sees each sender's
    broadcasts in sending order — the per-account operation logs of
    broadcast-based payments rely on this.
    """

    def __init__(
        self,
        node: Node,
        num_nodes: int,
        deliver: DeliverFn,
        max_faulty: int | None = None,
    ) -> None:
        self.app_deliver = deliver
        self._expected: dict[int, int] = {}
        self._buffered: dict[int, dict[int, Any]] = {}
        self.brb = BrachaBroadcast(
            node, num_nodes, self._on_brb_deliver, max_faulty
        )

    def broadcast(self, payload: Any) -> int:
        return self.brb.broadcast(payload)

    def _on_brb_deliver(self, sender: int, seq: int, payload: Any) -> None:
        buffered = self._buffered.setdefault(sender, {})
        buffered[seq] = payload
        expected = self._expected.get(sender, 0)
        while expected in buffered:
            self.app_deliver(sender, expected, buffered.pop(expected))
            expected += 1
        self._expected[sender] = expected

    # -- handler pass-throughs (for the owning node's dispatch) -----------

    def handle_send(self, message: Message) -> None:
        self.brb.handle_send(message)

    def handle_echo(self, message: Message) -> None:
        self.brb.handle_echo(message)

    def handle_ready(self, message: Message) -> None:
        self.brb.handle_ready(message)


class ReliableBroadcastNode(Node):
    """A standalone node running one Bracha endpoint (tests, examples)."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        num_nodes: int,
        fifo: bool = False,
        max_faulty: int | None = None,
    ) -> None:
        super().__init__(node_id, network)
        self.delivered: list[tuple[int, int, Any]] = []

        def record(sender: int, seq: int, payload: Any) -> None:
            self.delivered.append((sender, seq, payload))

        if fifo:
            self.endpoint: FifoReliableBroadcast | BrachaBroadcast = (
                FifoReliableBroadcast(self, num_nodes, record, max_faulty)
            )
        else:
            self.endpoint = BrachaBroadcast(self, num_nodes, record, max_faulty)

    def broadcast_value(self, payload: Any) -> int:
        return self.endpoint.broadcast(payload)

    def handle_brb_send(self, message: Message) -> None:
        self.endpoint.handle_send(message)

    def handle_brb_echo(self, message: Message) -> None:
        self.endpoint.handle_echo(message)

    def handle_brb_ready(self, message: Message) -> None:
        self.endpoint.handle_ready(message)
