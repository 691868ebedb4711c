"""Simulated point-to-point network with latency models and statistics.

Message complexity and latency are the quantities behind the paper's
scalability claims; the network counts every message (globally and per
message type) and samples per-link latencies from a pluggable, seeded model,
so every experiment is reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import NetworkError
from repro.net.simulation import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


@dataclass(slots=True)
class Message:
    """A typed protocol message.  Not frozen: one is built per send, and
    a frozen ``__init__`` sets every field through ``object.__setattr__``."""

    type: str
    src: int
    dst: int
    payload: Any = None

    def __str__(self) -> str:
        return f"{self.type} {self.src}->{self.dst}"


class LatencyModel(ABC):
    """Per-link latency distribution."""

    @abstractmethod
    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        """One-way delay for a message from ``src`` to ``dst``."""


class ConstantLatency(LatencyModel):
    """Fixed one-way delay (useful for analytically checkable tests)."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise NetworkError("latency must be non-negative")
        self.delay = delay

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Uniform delay in ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 <= low <= high:
            raise NetworkError("need 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass
class NetworkStats:
    """Counters maintained by the network.

    Besides the global and per-type tallies, sends and deliveries are
    billed per node (``sent_by_node`` / ``delivered_by_node``) — the
    per-node message bills the cluster layer (:mod:`repro.cluster`)
    reports for its load-imbalance and coordination-cost accounting.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    by_type: dict[str, int] = field(default_factory=dict)
    sent_by_node: dict[int, int] = field(default_factory=dict)
    delivered_by_node: dict[int, int] = field(default_factory=dict)

    def record_send(self, message: Message) -> None:
        self.messages_sent += 1
        self.by_type[message.type] = self.by_type.get(message.type, 0) + 1
        self.sent_by_node[message.src] = (
            self.sent_by_node.get(message.src, 0) + 1
        )

    def record_delivery(self, message: Message) -> None:
        self.messages_delivered += 1
        self.delivered_by_node[message.dst] = (
            self.delivered_by_node.get(message.dst, 0) + 1
        )


class Network:
    """Reliable (unless partitioned) asynchronous point-to-point links."""

    def __init__(
        self,
        simulator: Simulator,
        latency: LatencyModel | None = None,
        seed: int = 0,
    ) -> None:
        self.simulator = simulator
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        self.rng = random.Random(seed)
        self.nodes: dict[int, "Node"] = {}
        #: ``self.nodes``' ids in ascending order, the order a broadcast
        #: sends in; kept sorted by :meth:`register`.
        self.node_ids: list[int] = []
        self.stats = NetworkStats()
        #: Partition: when set, messages crossing group boundaries are dropped.
        self._partition: list[frozenset[int]] | None = None
        #: Fault injector (:class:`repro.faults.FaultInjector`); when set
        #: it filters every send (crashed endpoints, drop rules, extra
        #: delays) and every delivery (destination crashed in flight).
        self.faults = None
        #: Bound once: every send queues this same callable, so a message
        #: in flight holds no closure and no fresh bound method.
        self._deliver = self._deliver

    # ------------------------------------------------------------------

    def register(self, node: "Node") -> None:
        if node.node_id in self.nodes:
            raise NetworkError(f"node {node.node_id} already registered")
        self.nodes[node.node_id] = node
        insort(self.node_ids, node.node_id)

    def partition(self, *groups: frozenset[int] | set[int]) -> None:
        """Install a partition; messages across groups are dropped."""
        self._partition = [frozenset(group) for group in groups]

    def heal(self) -> None:
        """Remove any installed partition."""
        self._partition = None

    def _crosses_partition(self, src: int, dst: int) -> bool:
        for group in self._partition:
            if src in group:
                return dst not in group
        return False  # src not in any group: unaffected

    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, type: str, payload: Any = None) -> None:
        """Send one message; delivery is scheduled after a sampled latency
        as ``(self._deliver, message)`` on the simulator's heap."""
        if dst not in self.nodes:
            raise NetworkError(f"unknown destination node {dst}")
        message = Message(type, src, dst, payload)
        self.stats.record_send(message)
        if self._partition is not None and self._crosses_partition(src, dst):
            self.stats.messages_dropped += 1
            return
        extra = 0.0
        if self.faults is not None:
            dropped, extra = self.faults.disposition(message)
            if dropped:
                self.stats.messages_dropped += 1
                return
        delay = self.latency.sample(src, dst, self.rng) if src != dst else 0.0
        self.simulator.post(delay + extra, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        # A destination that crashed while the message was in flight
        # loses it — in-flight traffic is not queued across a crash.
        if self.faults is not None and self.faults.is_down(message.dst):
            self.stats.messages_dropped += 1
            self.faults.messages_dropped += 1
            return
        self.stats.record_delivery(message)
        self.nodes[message.dst].on_message(message)

    def broadcast(self, src: int, type: str, payload: Any = None) -> None:
        """Send to every node, including the sender (self-delivery is local
        and immediate, matching the usual broadcast abstractions)."""
        for dst in self.node_ids:
            self.send(src, dst, type, payload)
