"""Team lanes: a pool of independent total-order instances on one clock.

The paper's Theorems 2–4 say a token state whose largest enabled-spender
set has size *k* is exactly a *k*-consensus object — so a contended
component whose spenders number *k* only ever needs agreement among those
*k* participants, not among all *n* processes.  A :class:`TeamLane` is the
operational form of that observation: a *k*-replica group sized to one
team, paying the three-phase quorum pattern over *k* nodes (``O(k²)``
messages) instead of the global lane's ``O(n²)``.

A lane orders a round in one private event loop over plain tuples: the
leader-based protocol of :class:`~repro.net.total_order.TotalOrderNode`,
its reference, with the same seeded ``uniform(0.5, 1.5)`` link delays
drawn in the same order and the same ``(time, seq)`` tie-breaks — so
every delivery time, makespan and bill is the reference's
(``tests/sync/test_lane_reference.py``).  Between rounds a lane holds an
RNG and counters, never past operations.

A :class:`TeamLanePool` keeps one lane per distinct team for as long as
the pool lives: an idle lane is an RNG and three counters, so nothing is
collected.  Lanes share nothing but the clock, so the pool runs each
lane's round from the round's start and moves its clock to the latest
last event: the round's synchronization phase costs the *slowest team*,
not the sum of teams.
The Tier ∞ lane is the pool's top lane — total order is n-consensus — a
:class:`TeamLane` whose team is every replica, ordering the batches whose
team is ``None``.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Iterable, Sequence

from repro._records import record
from repro.errors import NetworkError

#: Seed mixer so each lane's latency stream is distinct but reproducible.
_SEED_MIX = 1_000_003
#: The reference network's ``UniformLatency(0.5, 1.5)``: a delay is
#: ``_LOW + _SPAN * rng.random()``, exactly ``rng.uniform(0.5, 1.5)``.
_LOW, _SPAN = 0.5, 1.5 - 0.5
#: Event kinds of the lane loop.
_PROPOSE, _PREPARE, _COMMIT = 0, 1, 2


class TeamLane:
    """One team-scoped total-order instance over ``k`` replicas, ordered
    one batch at a time on its own clock (:meth:`order`) or as a pool's
    lane from the pool's clock (:meth:`order_batches`)."""

    def __init__(
        self, team: Iterable[int], seed: int = 0, max_batch: int = 64
    ) -> None:
        self.team = frozenset(team)
        if not self.team:
            raise NetworkError("a team lane needs at least one participant")
        self.k = len(self.team)
        #: ``2f + 1`` with ``f = ⌊(k − 1) / 3⌋``, the reference's quorum.
        self.quorum = 2 * ((self.k - 1) // 3) + 1
        self.max_batch = max_batch
        self.rng = random.Random(seed)
        #: :meth:`order`'s virtual time; a pool keeps its own.
        self.clock = 0.0
        #: Proposals sequenced and messages sent over the lane's life.
        self.slots = self.messages = 0

    def run_round(
        self, count: int, start: float
    ) -> tuple[list[tuple[int, float]], float]:
        """Order ``count`` operations submitted at the leader at ``start``:
        one ``(end, time)`` per proposal — it delivers the operations
        before ``end`` at the leader at ``time`` — and the time of the
        round's last event.  The first submission is proposed alone, the
        rest queue behind it, ``max_batch`` per later proposal."""
        if not count:
            return [], start
        k, quorum, max_batch = self.k, self.quorum, self.max_batch
        draw = self.rng.random
        proposals = 2 + (count - 2) // max_batch if count > 1 else 1
        # Votes per replica per proposal, at ``s * k + replica``.
        prepares = [0] * (proposals * k)
        commits = [0] * (proposals * k)
        deliveries: list[tuple[int, float]] = []
        heap: list[tuple[float, int, int, int]] = []
        seq, last, proposed = 0, start, 1
        kind, src, base, t = _PROPOSE, 0, 0, start
        while True:
            # Replica ``src`` broadcasts ``kind`` for proposal ``base // k``
            # in the reference's send order, a self-send drawing no delay.
            # Only the leader's commits drive anything: a follower's delay
            # is drawn, and only its arrival is kept.
            for dst in range(k):
                at = t if dst == src else t + (_LOW + _SPAN * draw())
                if kind != _COMMIT or not dst:
                    heappush(heap, (at, seq, kind, base + dst))
                    seq += 1
                elif at > last:
                    last = at
            while heap:
                t, _, kind, index = heappop(heap)
                src = index % k
                base = index - src
                if kind == _PROPOSE:
                    kind = _PREPARE
                    break
                if kind == _PREPARE:
                    votes = prepares[index] = prepares[index] + 1
                    if votes == quorum:
                        kind = _COMMIT
                        break
                    continue
                votes = commits[index] = commits[index] + 1
                if votes == quorum:
                    deliveries.append((proposed, t))
                    if proposed < count:
                        proposed = min(count, proposed + max_batch)
                        kind, base = _PROPOSE, base + k
                        break
            else:
                break
        if proposed != count or len(deliveries) != proposals:
            raise NetworkError(
                f"team lane {sorted(self.team)} lost operations: "
                f"submitted {count}, delivered {proposed}"
            )
        self.slots += proposals
        self.messages += count + proposals * (k + 2 * k * k)
        return deliveries, max(last, t)

    def order_batches(
        self, batches: Sequence[Sequence[Any]], start: float
    ) -> tuple[list[LaneOrder], float]:
        """Order ``batches`` as one round from ``start``, submitted in
        order: one :class:`LaneOrder` per batch, and the round's last
        event time."""
        before = self.messages
        deliveries, last = self.run_round(sum(map(len, batches)), start)
        orders: list[LaneOrder] = []
        end = proposal = 0
        for ops in batches:
            end += len(ops)
            completed = 0.0
            if ops:
                # The batch's own last delivery: batches queued behind it
                # complete later.
                while deliveries[proposal][0] < end:
                    proposal += 1
                completed = deliveries[proposal][1] - start
            # The lane's bill is charged once, to its first batch.
            messages = 0 if orders else self.messages - before
            orders.append(LaneOrder(self.team, tuple(ops), completed, messages))
        return orders, last

    def order(self, ops: Sequence[Any]) -> PoolRound:
        """Order one batch alone on the lane's clock: the round a
        one-batch :meth:`TeamLanePool.order` returns.  An empty batch
        costs nothing."""
        if not ops:
            return PoolRound(orders=(), makespan=0.0, messages=0, teams=0)
        started = self.clock
        [order], self.clock = self.order_batches([ops], started)
        return PoolRound((order,), self.clock - started, order.messages, 1)


@record(frozen=True, slots=True)
class LaneOrder:
    """Outcome of one team batch within a pool round."""

    team: frozenset[int]
    ordered: tuple
    #: Completion relative to the round's start on the shared clock: the
    #: virtual time at which this batch's *own* last operation was
    #: delivered (batches queued behind it on a shared lane finish later).
    completed: float
    #: Messages this lane carried for the round (``O(k²)``).
    messages: int


@record(frozen=True, slots=True)
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
    """Lanes keyed by team, sharing one clock for true concurrency.

    A team's lane lives as long as the pool.  ``top`` is the Tier ∞
    lane: every one of ``replicas`` on its team, seeded with the pool's
    own seed.  It is held apart from the team lanes — not counted by
    :attr:`lanes_created` and taking no team lane's seed slot — so a team
    with the same members still gets a lane of its own.
    """

    def __init__(self, seed: int = 0, replicas: int = 4) -> None:
        if replicas < 4:
            raise NetworkError(
                "total order needs n >= 3f+1 with f >= 1: use >= 4"
            )
        #: Virtual time: the latest last event of any round so far.
        self.clock = 0.0
        self.seed = seed
        self.top = TeamLane(range(replicas), seed=seed)
        self._lanes: dict[frozenset[int], TeamLane] = {}
        self.rounds = 0
        #: Optional :class:`repro.obs.trace.TraceRecorder` (attached by a
        #: traced executor).  Lane spans are recorded on the pool's
        #: clock as informational overlays (``chain=False``) —
        #: they never enter the engine timeline's attribution walk.
        self.tracer = None

    # ------------------------------------------------------------------

    def lane(self, team: Iterable[int]) -> TeamLane:
        """The lane for a team, created on first use and reused after —
        repeat contention among the same spenders pays no setup."""
        key = frozenset(team)
        existing = self._lanes.get(key)
        if existing is not None:
            return existing
        lane = TeamLane(
            key,
            seed=(self.seed * _SEED_MIX + len(self._lanes) + 1) & 0x7FFFFFFF,
        )
        self._lanes[key] = lane
        if self.tracer is not None:
            self.tracer.instant(
                "teamlanes.pool",
                "lane spin-up",
                self.clock,
                args={"team": "-".join(str(p) for p in sorted(key))},
            )
        return lane

    @property
    def lanes_created(self) -> int:
        """Team lanes provisioned over the pool's life: one per distinct
        team it ever ordered."""
        return len(self._lanes)

    def order(
        self, batches: Sequence[tuple[Iterable[int] | None, Sequence[Any]]]
    ) -> PoolRound:
        """Order every ``(team, ops)`` batch concurrently.

        Every lane — a ``None`` team's is the top lane — runs its round
        from the pool's clock, and the round costs the slowest lane, not
        the sum.  Batches sharing a lane serialize on it, submitted
        contiguously in batch order; each completes at its own last
        delivery.  Returns per-batch committed orders plus the round's
        makespan and message bill (each lane's charged to its first
        batch).
        """
        if not batches:
            return PoolRound(orders=(), makespan=0.0, messages=0, teams=0)
        started = end = self.clock
        lanes = [
            self.top if team is None else self.lane(team) for team, _ in batches
        ]
        by_lane: dict[TeamLane, list[int]] = {}
        for index, lane in enumerate(lanes):
            by_lane.setdefault(lane, []).append(index)
        orders: list = [None] * len(batches)
        for lane, indices in by_lane.items():
            lane_orders, last = lane.order_batches(
                [batches[index][1] for index in indices], started
            )
            end = max(end, last)
            for index, order in zip(indices, lane_orders):
                orders[index] = order
        self.clock = end
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
        return PoolRound(
            orders=tuple(orders),
            makespan=end - started,
            messages=sum(order.messages for order in orders),
            teams=len(by_lane),
        )
