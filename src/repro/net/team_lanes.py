"""Team lanes: a pool of independent total-order instances on one simulator.

The paper's Theorems 2–4 say a token state whose largest enabled-spender
set has size *k* is exactly a *k*-consensus object — so a contended
component whose spenders number *k* only ever needs agreement among those
*k* participants, not among all *n* processes.  A :class:`TeamLane` is the
operational form of that observation: a private
:class:`~repro.net.total_order.TotalOrderNode` replica group sized to one
team, paying the three-phase quorum pattern over *k* nodes (``O(k²)``
messages) instead of the global lane's ``O(n²)``.

A :class:`TeamLanePool` keeps one lane per distinct team, **all on one
shared** :class:`~repro.net.simulation.Simulator`: each lane has its own
:class:`~repro.net.network.Network` (so node ids and broadcasts never
cross lanes), but their events interleave on the common virtual clock —
submitting batches to several lanes and running the simulator once makes
the independent mini-consensus instances genuinely concurrent, which is
the whole scalability point: the round's synchronization phase costs the
*slowest team*, not the sum of teams.

The hierarchy has no special top — total order is n-consensus — so the
Tier ∞ lane is the pool's top lane: a :class:`TeamLane` whose team is
every replica, on the same clock, ordering the batches whose team is
``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import NetworkError
from repro.net.network import LatencyModel, Network, UniformLatency
from repro.net.simulation import Simulator
from repro.net.total_order import TotalOrderNode

#: Seed mixer so each lane's latency stream is distinct but reproducible.
_SEED_MIX = 1_000_003


class TeamLane:
    """One team-scoped total-order instance (k replicas, private network).

    A *standard* lane is constructible from its team and seed alone — a
    simulator of its own and ``UniformLatency(0.5, 1.5)`` — and ordered
    one batch at a time with :meth:`order`.  A pooled lane is handed its
    pool's shared simulator instead.
    """

    def __init__(
        self,
        team: Iterable[int],
        simulator: Simulator | None = None,
        latency: LatencyModel | None = None,
        seed: int = 0,
        max_batch: int = 64,
    ) -> None:
        self.team = frozenset(team)
        if not self.team:
            raise NetworkError("a team lane needs at least one participant")
        self.k = len(self.team)
        #: The lane's network may share a pool's simulator but is otherwise
        #: private: local node ids 0..k-1, broadcasts confined to the team.
        self.network = Network(
            simulator if simulator is not None else Simulator(),
            latency if latency is not None else UniformLatency(0.5, 1.5),
            seed=seed,
        )
        #: The current round's deliveries (drained by :meth:`_collect` each
        #: round, so a long-lived lane never accumulates past operations)
        #: and their per-operation delivery timestamps.
        self.delivered: list[Any] = []
        self.delivery_times: list[float] = []
        #: ``messages_sent`` at the last collection: the network is private
        #: and silent between rounds, so the difference is the round's bill.
        self._billed = 0
        self.nodes = [
            TotalOrderNode(
                node_id,
                self.network,
                self.k,
                deliver=self._on_deliver if node_id == 0 else None,
                max_batch=max_batch,
            )
            for node_id in range(self.k)
        ]

    # ------------------------------------------------------------------

    def _on_deliver(self, sequence: int, txs: list) -> None:
        now = self.network.simulator.now
        self.delivered.extend(txs)
        self.delivery_times.extend(now for _ in txs)

    def submit(self, ops: Iterable[Any]) -> int:
        """Queue a submission-ordered batch at the lane's leader; returns
        the number of operations submitted.  Submissions originate at the
        leader so arrival order (and hence the committed order) is the
        caller's submission order — the merge the serial-equivalence
        contract requires.  The caller runs the simulator (:meth:`order`
        on the lane's own, :meth:`TeamLanePool.order` on a shared one)."""
        count = 0
        leader = self.nodes[0]
        for op in ops:
            leader.submit(op)
            count += 1
        return count

    def _collect(
        self, sizes: Sequence[int], started: float
    ) -> list[LaneOrder]:
        """Close a round on this lane once its simulator ran dry.

        ``sizes`` are the lengths of the batches submitted since the last
        collection, in submission order, and ``started`` the round's start
        on the lane's clock.  Refuses a lost operation, slices the
        deliveries back into one :class:`LaneOrder` per batch, and drains
        them so a long-lived lane never accumulates past operations.
        """
        if len(self.delivered) != sum(sizes):
            raise NetworkError(
                f"team lane {sorted(self.team)} lost operations: "
                f"submitted {sum(sizes)}, delivered {len(self.delivered)}"
            )
        sent = self.network.stats.messages_sent
        messages, self._billed = sent - self._billed, sent
        orders: list[LaneOrder] = []
        cursor = 0
        for size in sizes:
            end = cursor + size
            orders.append(
                LaneOrder(
                    team=self.team,
                    ordered=tuple(self.delivered[cursor:end]),
                    # This batch's own last delivery: components queued
                    # behind it on a shared lane complete later.
                    completed=self.delivery_times[end - 1] - started
                    if size
                    else 0.0,
                    # The lane's bill is shared by its batches; charge it
                    # once (to the first) so round totals stay exact.
                    messages=0 if orders else messages,
                )
            )
            cursor = end
        self.delivered.clear()
        self.delivery_times.clear()
        return orders

    def order(self, ops: Sequence[Any]) -> PoolRound:
        """Order one batch alone: submit at the leader, run the lane's
        simulator to quiescence, collect.  Returns the
        round a one-batch :meth:`TeamLanePool.order` would; an empty
        batch costs nothing."""
        if not ops:
            return PoolRound(orders=(), makespan=0.0, messages=0, teams=0)
        simulator = self.network.simulator
        started = simulator.now
        submitted = self.submit(ops)
        simulator.run()
        [order] = self._collect([submitted], started)
        return PoolRound(
            orders=(order,),
            makespan=simulator.now - started,
            messages=order.messages,
            teams=1,
        )


@dataclass(frozen=True, slots=True)
class LaneOrder:
    """Outcome of one team batch within a pool round."""

    team: frozenset[int]
    ordered: tuple
    #: Completion relative to the round's start on the shared clock: the
    #: virtual time at which this batch's *own* last operation was
    #: delivered (batches queued behind it on a shared lane finish later).
    completed: float
    #: Messages this lane's network carried for the round (``O(k²)``).
    messages: int


@dataclass(frozen=True, slots=True)
class PoolRound:
    """Outcome of one concurrent multi-team ordering round."""

    orders: tuple[LaneOrder, ...]
    #: Virtual time until every lane fully quiesced (trailing quorum
    #: messages included).
    makespan: float
    messages: int
    #: Distinct team lanes active this round, the top lane not counted
    #: (batches naming one team share its lane).
    teams: int = 0


class TeamLanePool:
    """Lanes keyed by team, sharing one simulator for true concurrency.

    ``top`` is the Tier ∞ lane: every one of ``replicas`` on its team,
    seeded with the pool's own seed.  It is held apart from the team
    lanes — never garbage-collected, not counted by :attr:`lanes_created`
    or :attr:`live_lanes`, and taking no team lane's seed slot — so a
    team with the same members still gets a lane of its own.
    """

    def __init__(
        self,
        simulator: Simulator | None = None,
        seed: int = 0,
        idle_ttl: int | None = None,
        replicas: int = 4,
    ) -> None:
        if idle_ttl is not None and idle_ttl < 1:
            raise NetworkError("idle_ttl must be positive (or None to disable)")
        if replicas < 4:
            raise NetworkError(
                "total order needs n >= 3f+1 with f >= 1: use >= 4"
            )
        self.simulator = simulator if simulator is not None else Simulator()
        self.seed = seed
        self.top = TeamLane(range(replicas), self.simulator, seed=seed)
        #: Garbage-collect a lane unused for this many ordering rounds
        #: (``None`` = keep lanes forever).  A long run over shifting
        #: approval patterns otherwise accumulates one live lane — k
        #: replicas, a private network — per distinct team it ever saw.
        self.idle_ttl = idle_ttl
        self._lanes: dict[frozenset[int], TeamLane] = {}
        #: team -> round count at its last use (GC bookkeeping).
        self._last_used: dict[frozenset[int], int] = {}
        self.rounds = 0
        #: Lanes ever provisioned / garbage-collected over the pool's life.
        self._created = 0
        self.lanes_gcd = 0
        #: Optional :class:`repro.obs.trace.TraceRecorder` (attached by a
        #: traced executor).  Lane spans are recorded on the pool's
        #: clock as informational overlays (``chain=False``) —
        #: they never enter the engine timeline's attribution walk.
        self.tracer = None

    # ------------------------------------------------------------------

    def lane(self, team: Iterable[int]) -> TeamLane:
        """The lane for a team, created on first use and reused after —
        repeat contention among the same spenders pays no setup (a
        GC'd lane is simply re-provisioned on next use)."""
        key = frozenset(team)
        existing = self._lanes.get(key)
        if existing is not None:
            return existing
        lane = TeamLane(
            key,
            self.simulator,
            seed=(self.seed * _SEED_MIX + self._created + 1) & 0x7FFFFFFF,
        )
        self._lanes[key] = lane
        self._last_used[key] = self.rounds
        self._created += 1
        if self.tracer is not None:
            self.tracer.instant(
                "teamlanes.pool",
                "lane spin-up",
                self.simulator.now,
                args={
                    "team": "-".join(str(p) for p in sorted(key)),
                    "k": len(key),
                    "live": len(self._lanes),
                },
            )
        return lane

    @property
    def lanes_created(self) -> int:
        """Lanes ever provisioned (GC does not decrement this)."""
        return self._created

    @property
    def live_lanes(self) -> int:
        """Lanes currently held — the quantity ``idle_ttl`` bounds."""
        return len(self._lanes)

    def _collect_idle(self) -> None:
        """Drop lanes unused for ``idle_ttl`` rounds.  Safe at a round
        boundary: every lane quiesced (the shared simulator ran dry), so a
        dropped lane holds no pending events — only replicas and a private
        network, which is exactly the state worth reclaiming."""
        if self.idle_ttl is None:
            return
        for key in [
            key
            for key in self._lanes
            if self.rounds - self._last_used.get(key, 0) >= self.idle_ttl
        ]:
            del self._lanes[key]
            self._last_used.pop(key, None)
            self.lanes_gcd += 1
            if self.tracer is not None:
                self.tracer.instant(
                    "teamlanes.pool",
                    "lane gc",
                    self.simulator.now,
                    args={
                        "team": "-".join(str(p) for p in sorted(key)),
                        "live": len(self._lanes),
                    },
                )

    def order(
        self, batches: Sequence[tuple[Iterable[int] | None, Sequence[Any]]]
    ) -> PoolRound:
        """Order every ``(team, ops)`` batch concurrently.

        All batches are submitted to their lanes first — a ``None`` team's
        to the top lane — then the shared simulator runs until quiescence,
        so lanes make progress in interleaved virtual time and the round
        costs the slowest lane, not the sum.  Batches sharing a lane
        serialize on it; each completes at its own last delivery.
        Returns per-batch committed orders plus the round's makespan and
        message bill (each lane's charged to its first batch).
        """
        if not batches:
            return PoolRound(orders=(), makespan=0.0, messages=0, teams=0)
        started = self.simulator.now
        lanes = [
            self.top if team is None else self.lane(team) for team, _ in batches
        ]
        # Group by lane first: batches on one lane must be submitted (and
        # sliced back out) contiguously.
        by_lane: dict[TeamLane, list[int]] = {}
        for index, lane in enumerate(lanes):
            by_lane.setdefault(lane, []).append(index)
        for lane, indices in by_lane.items():
            for index in indices:
                lane.submit(batches[index][1])
        self.simulator.run()
        orders: list = [None] * len(batches)
        for lane, indices in by_lane.items():
            lane_orders = lane._collect(
                [len(batches[index][1]) for index in indices], started
            )
            for index, order in zip(indices, lane_orders):
                orders[index] = order
        if self.tracer is not None:
            for lane, order in zip(lanes, orders):
                if not order.ordered:
                    continue
                members = "-".join(str(p) for p in sorted(order.team))
                track = f"teamlanes.k{len(order.team)} [{members}]"
                self.tracer.span(
                    "teamlanes.global" if lane is self.top else track,
                    f"batch r{self.rounds}",
                    "sync_wait",
                    started,
                    started + order.completed,
                    chain=False,
                    args={
                        "ops": len(order.ordered),
                        "messages": order.messages,
                    },
                )
        self.rounds += 1
        by_lane.pop(self.top, None)
        for lane in by_lane:
            self._last_used[lane.team] = self.rounds
        self._collect_idle()
        return PoolRound(
            orders=tuple(orders),
            makespan=self.simulator.now - started,
            messages=sum(order.messages for order in orders),
            teams=len(by_lane),
        )
