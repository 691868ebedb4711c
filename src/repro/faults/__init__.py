"""repro.faults — deterministic fault injection for the token cluster.

The cluster runs on a virtual-time simulator (:mod:`repro.net`), so
faults can be *scheduled* the way everything else is: a
:class:`~repro.config.FaultConfig` declares crash/restart events at
virtual timestamps plus message-type drop and delay rules, and a
:class:`FaultInjector` wires that plan into one run — it plants the
crash/restart events on the simulator, filters every network send and
delivery through the plan, and fires callbacks the cluster uses to drive
the node crash/restart lifecycle and the router's fail-over.

Two properties make crash experiments reproducible and composable:

* **Determinism** — randomized drop/delay rules draw from a dedicated
  seeded stream, never from the network's latency stream, so enabling a
  fault plan perturbs *nothing* about the fault-free schedule except the
  faults themselves, and the same plan replays identically every run.
* **Fencing** — the router declares a node dead on timeout evidence
  alone (it cannot read the schedule).  ``fence()`` lets it cut a
  suspected node off from the network, so even a *falsely* suspected
  node — alive, merely slow — can no longer deliver stale results or
  grants.  Exactly-once application is then guaranteed by the cluster's
  commit-side dedup, not by the accuracy of failure detection.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import FaultConfig
    from repro.net.network import Message
    from repro.net.simulation import Simulator

__all__ = ["FaultInjector"]


class FaultInjector:
    """Wires a validated :class:`~repro.config.FaultConfig` into one
    simulator + network run.

    The injector owns the ``down`` set — nodes currently crashed *or*
    fenced by the router — and is consulted by the network on every send
    and delivery.  Crash/restart events are planted on the simulator at
    :meth:`install` time; the cluster registers ``on_crash``/
    ``on_restart`` callbacks to drive the node lifecycle and the
    router's rejoin rebalancing.
    """

    def __init__(self, config: "FaultConfig", simulator: "Simulator"):
        self.config = config
        self.simulator = simulator
        self.down: set[int] = set()
        self._rng = random.Random(config.seed)
        self.on_crash: Callable[[int], None] | None = None
        self.on_restart: Callable[[int], None] | None = None
        self.crashes = 0
        self.restarts = 0
        self.fenced = 0
        self.messages_dropped = 0
        self.messages_delayed = 0
        self._installed = False

    # -- lifecycle ------------------------------------------------------

    def install(self) -> None:
        """Plant every scheduled crash (and restart) on the simulator."""
        if self._installed:
            raise ClusterError("fault schedule already installed")
        self._installed = True
        for node, at, restart_at in self.config.crashes:
            self.simulator.schedule_at(
                at, lambda n=node, r=restart_at: self._crash(n, r)
            )

    def _crash(self, node: int, restart_at: float | None) -> None:
        if node not in self.down:
            self.down.add(node)
            self.crashes += 1
            if self.on_crash is not None:
                self.on_crash(node)
        if restart_at is not None:
            self.simulator.schedule_at(
                restart_at, lambda: self._restart(node)
            )

    def _restart(self, node: int) -> None:
        if node not in self.down:
            return
        self.down.discard(node)
        self.restarts += 1
        if self.on_restart is not None:
            self.on_restart(node)

    def fence(self, node: int) -> None:
        """Cut a router-suspected node off from the network.  Idempotent;
        a fenced node that was merely slow stays isolated until a
        scheduled restart (if any) readmits it."""
        if node not in self.down:
            self.down.add(node)
            self.fenced += 1

    def is_down(self, node: int) -> bool:
        return node in self.down

    # -- network filter -------------------------------------------------

    def disposition(self, message: "Message") -> tuple[bool, float]:
        """``(dropped, extra_delay)`` for one send, at send time.

        A crashed/fenced endpoint loses the message outright; otherwise
        the drop rules are consulted (first match wins) and the delay
        rules accumulate.  The dice stream is consumed in declaration
        order, so runs are reproducible for a fixed plan.
        """
        if message.src in self.down or message.dst in self.down:
            self.messages_dropped += 1
            return True, 0.0
        now = self.simulator.now
        for message_type, probability, start, end in self.config.drops:
            if message_type != message.type or not start <= now < end:
                continue
            if probability >= 1.0 or self._rng.random() < probability:
                self.messages_dropped += 1
                return True, 0.0
        extra = 0.0
        for message_type, amount, probability in self.config.delays:
            if message_type != message.type:
                continue
            if probability >= 1.0 or self._rng.random() < probability:
                extra += amount
        if extra > 0.0:
            self.messages_delayed += 1
        return False, extra
