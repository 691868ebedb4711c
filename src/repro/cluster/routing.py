"""Routing policy: one mempool window in, one routed round out.

:func:`route_window` is everything the router *decides* about a window.
It sends no message and reads no clock — it needs no network and no
simulator, so the policy is testable on a hand-built
:class:`~repro.cluster.sharding.ShardMap` alone; *when* the units and
lease requests go out is :meth:`Router.pump`'s business.  It plans the
window with the shared :func:`~repro.engine.rounds.plan_window` — once
for the whole cluster: each :class:`_Unit` carries its component's
precedence DAG to the node — and routes every component as a unit:

* **owner-local components** — every operation anchors on an account whose
  shard one node owns; the component is forwarded point-to-point and costs
  no coordination at all (the paper's consensus-number-1 regime at the
  message level);
* **cross-shard but uncontended components** — a chain whose anchors span
  several owners without any synchronization-group conflict inside it
  (e.g. credit-enables-spend order across accounts).  The shard-ownership
  *lease protocol* resolves it: the minority owners hand their shards to
  the busiest participant (``cl_lease_request`` → ``cl_lease_grant`` →
  ``cl_lease_ack``), ownership migrates, and the chain executes
  owner-locally on the new owner — three messages per migrated shard
  instead of a consensus round;
* **contended cross-node components** — synchronization-group conflicts
  whose members span owners.  No single owner is entitled to sequence the
  race, but — by the paper's Theorems 2–4 — only the *participants* have
  to agree: each such component gets a **team lane** among just its owner
  nodes (:mod:`repro.sync`, ``O(k²)`` messages for ``k`` owners, many
  teams concurrent) when the owner set is within ``team_threshold``;
  larger races fall back to the shared total-order lane (the same
  :class:`~repro.net.team_lanes.TeamLane` class).  Either way the
  ordering latency delays only the units carrying those components (the
  ``sync_ready`` carried by each unit's ``cl_run``).

Oversized commuting bundles (hot shards) are sprayed one op at a time
onto whichever live node holds the fewest ops so far — sound because
singleton components commute with the whole window — and counted as hot
splits rather than migrations.

Co-locating whole components per round is the entire safety argument:
any two operations applied on different nodes in one round statically
commute, so every network interleaving is serially equivalent, for any
node count and any lease schedule.  The liveness argument is one more
invariant, kept here because this is where nodes are chosen: **no unit is
ever placed on a node outside** ``live`` — ownership may briefly name a
dead node (a shard whose revocation had to wait for an in-flight handoff),
placement never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.engine.classifier import OpClassifier
from repro.engine.conflict_graph import ComponentDAG
from repro.engine.mempool import PendingOp
from repro.engine.rounds import plan_window
from repro.objects.footprint import (
    OpFootprint,
    anchor_account,
    union_footprint,
)
from repro.sync.escalation import SyncRoundResult, TieredEscalator

from repro.cluster.sharding import ShardMap
from repro.cluster.stats import ClusterRound

#: A chain migrates leases only when its majority owner already has at
#: least this many of its operations: a 1-vs-1 split names no "busier
#: node", and a handoff would be pure ownership churn.
LEASE_MIN_GAIN = 2


@dataclass(slots=True, eq=False)
class _Unit:
    """One component-granular dispatch unit, from routing to its result —
    the whole contract between router and node.

    A unit is a single conflict-graph component co-located on one node —
    or the residual set of the node's singletons, which commute with the
    whole window.  Units are the gate granularity of the router: each
    carries its own footprint summary, its own sync-lane delay, and its
    own lease count, so one blocked component does not hold up
    everything else routed to its node that round.  A fail-over replay
    moves the same record to ``(target, _REPLAY_BASE + n)``; identity,
    not the key, is what queues, timers and recovery episodes hold.

    The lifecycle (routed → gated → dispatched → done, or requeued and
    round again) is written by the methods below only; each returns what
    the router bills.
    """

    #: In ascending ``seq`` — ``dag`` indexes them by position.
    ops: tuple[PendingOp, ...]
    contended: bool
    #: This unit's sync-lane completion, relative to the round's sync
    #: phase start (0.0 for uncontended units).
    sync_delay: float
    #: Lease grants the unit's node must hold before running it.
    leases: int
    #: The unit's name on the wire; a replay changes the last two.
    round: int
    node: int
    uidx: int
    #: Union of the ops' footprints (``None`` = unknown), the
    #: cross-round frontier test's input.
    summary: OpFootprint | None
    #: The component's precedence DAG, ``plan.chain_dag(k)``, over
    #: positions in ``ops``; ``None`` for a residual unit (no edges).
    dag: ComponentDAG | None
    dispatched: bool = False
    done: bool = False
    #: The cross-round footprint gate: earlier rounds' unfinished units
    #: this one does not commute with, fixed when its round is routed.
    blockers: list[_Unit] | tuple[()] = ()
    #: Time the ready-to-go unit was first blocked by that gate.
    blocked_since: float | None = None
    #: Result-timeout timer (recovery only), and when it first asked the
    #: node about this incarnation (``None``: not asking).
    timer: Any = None
    since: float | None = None
    #: Virtual time the current replay incarnation was created
    #: (recovery-stall attribution), and the failed node(s) whose
    #: episodes await its result.
    replay_started: float | None = None
    episodes: tuple[int, ...] = ()

    def block(self, now: float) -> None:
        """The footprint gate refused the unit: the first refusal starts
        the stall clock."""
        if self.blocked_since is None:
            self.blocked_since = now

    def dispatch(self, now: float) -> tuple[float, float]:
        """The gate passed and the ``cl_run`` goes out.  Returns how long
        the gate held the unit and how long this replay incarnation has
        existed (0.0 for an original); each is reported once."""
        gate_stall = recovery_stall = 0.0
        if self.blocked_since is not None:
            gate_stall = now - self.blocked_since
        if self.replay_started is not None:
            recovery_stall = now - self.replay_started
        self.dispatched = True
        self.blocked_since = self.replay_started = None
        return gate_stall, recovery_stall

    def watch(self, timer: Any) -> None:
        """Hold the (re-)armed result timer until :meth:`settle`."""
        self.timer = timer

    def settle(self, done: bool) -> None:
        """The dispatched incarnation is over — its result arrived
        (``done``) or it is being replayed: stop its timer and forget
        what that timer asked."""
        self.done = self.done or done
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self.since = None

    def requeue(self, target: int, uidx: int, now: float) -> None:
        """Become a replay incarnation queued for ``target``.  It needs
        no lease grants — co-location, not ownership, is the safety
        argument — and its sync order (if any) was already committed, so
        ``sync_delay`` rides along unchanged, as do the DAG and the
        footprint summary: every later round's conflicting unit stays
        gated behind the replay exactly as it was behind the original."""
        if self.node not in self.episodes:
            self.episodes += (self.node,)
        self.node, self.uidx = target, uidx
        self.leases = 0
        self.dispatched = False
        self.blocked_since = None
        self.replay_started = now


@dataclass
class _Round:
    """One routed window and its in-flight bookkeeping."""

    index: int
    assignment: dict[int, list[PendingOp]]
    sync: SyncRoundResult
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
    #: Results still owed, and the planned ``(shard, from, to)`` lease
    #: migrations not yet requested (per-shard handoffs serialize) / not
    #: yet acknowledged.
    pending: int
    lease_pending: list[tuple[int, int, int]]
    pending_acks: int
    #: The round's entry in ``ClusterStats.round_log``, filled at routing;
    #: the router adds the dispatch stalls and stamps the completion.
    stats: ClusterRound
    #: Stamped by :meth:`Router.pump`: the classification instant, and the
    #: absolute start of this round's synchronization phase (the shared
    #: sync lanes are one resource: phases serialize across rounds but
    #: overlap node execution).
    classified: float = 0.0
    sync_start: float = 0.0
    #: Replay incarnations created so far (the next one's index offset),
    #: and unit retransmissions charged against the round's budget.
    replays: int = 0
    retransmits: int = 0


def route_window(
    window: list[PendingOp],
    index: int,
    *,
    classifier: OpClassifier,
    shard_map: ShardMap,
    sync: TieredEscalator,
    live: list[int],
) -> _Round:
    """Route one window: co-locate components, plan leases, order the
    contended components through the sync layer.

    ``shard_map`` is updated in place as leases are planned: a later
    chain of the window must see an earlier chain's migration, and no
    shard moves twice in one round.  ``live`` lists the nodes that may
    be given work, in any order: sorted here, every load tie goes to the
    lowest id (``min`` and ``max`` keep the first of equal keys)."""
    live = sorted(live)
    plan = plan_window(classifier, window)
    contended = set(plan.escalated_idx)

    # Everything below is by window index, aligned with ``plan.footprints``:
    # the account each op anchors on, that account's shard, and the shard's
    # start-of-round owner — the owner-local yardstick (this round's own
    # migrations must not flatter the metric).  A chain's owner counts read
    # the live map instead: a later chain sees an earlier one's migration.
    footprints = plan.footprints
    anchors = list(map(anchor_account, footprints, [op.pid for op in window]))
    shards = [shard_map.shard_of(account) for account in anchors]
    home = [shard_map.owner_of_shard(shard) for shard in shards]
    in_chain = [False] * len(window)

    assignment: dict[int, list[int]] = {
        node: [] for node in range(shard_map.num_nodes)
    }
    #: ``len(assignment[node])`` per live node (the only ones given work).
    load = dict.fromkeys(live, 0)
    by_load = load.__getitem__
    escalated_ops = 0
    #: Per contended cross-node component: (owner-node team, contended
    #: ops, the chain's unit) — what the sync layer tiers.
    escalated_components: list[
        tuple[frozenset[int], tuple[PendingOp, ...], _Unit]
    ] = []
    migrations: list[tuple[int, int, int]] = []
    #: Component-granular dispatch: one unit per routed chain (head
    #: submission order) plus, below, one residual unit of each
    #: node's singletons.
    units: dict[tuple[int, int], _Unit] = {}
    units_on = dict.fromkeys(range(shard_map.num_nodes), 0)
    lease_units: dict[int, int] = {}

    def add_unit(
        node: int, members: list[int], dag: ComponentDAG | None = None
    ) -> _Unit:
        unit = _Unit(
            ops=tuple([window[i] for i in members]),
            contended=False,
            sync_delay=0.0,
            leases=0,
            round=index,
            node=node,
            uidx=units_on[node],
            summary=union_footprint([footprints[i] for i in members]),
            dag=dag,
        )
        units_on[node] += 1
        units[(node, unit.uidx)] = unit
        return unit

    hot_split = 0

    # Components route as units (the co-location invariant).  Chains
    # first, in submission order of their heads; each ships its DAG.
    for k, chain in enumerate(plan.chains):
        owners: dict[int, int] = {}
        for i in chain:
            in_chain[i] = True
            owner = shard_map.owner_of_shard(shards[i])
            owners[owner] = owners.get(owner, 0) + 1
        # Majority owner wins; ties go to the currently least-loaded
        # participant (an id tie-break would funnel every evenly-split
        # chain — and, through leases, ever more ownership — onto the
        # lowest node id).  Only a *live* owner may win — a surviving
        # owner plans the dead ones' shards onto itself below (the router
        # adopts those unilaterally) — and a chain whose owners are all
        # dead runs on the least-loaded live node.
        target = min(
            [n for n in owners if n in live] or live,
            key=lambda n: (-owners.get(n, 0), load[n], n),
        )
        unit = add_unit(target, chain, plan.chain_dag(k))
        chain_contended = [i for i in chain if i in contended]
        if len(owners) > 1 and chain_contended:
            # A race spanning owners: a sync lane sequences exactly the
            # contended members — a team lane among just the owner
            # nodes when their count fits the threshold, the shared
            # global lane otherwise.  The chain executes on the node
            # already owning most of it.
            component = tuple(window[i] for i in chain_contended)
            escalated_ops += len(component)
            unit.contended = True
            escalated_components.append((frozenset(owners), component, unit))
        elif len(owners) > 1 and owners.get(target, 0) >= LEASE_MIN_GAIN:
            # Uncontended cross-shard chain with a clearly busier node:
            # migrate the minority shards' leases to it, then run
            # owner-local.
            foreign = sorted(
                {
                    shards[i]
                    for i in chain
                    if shard_map.owner_of_shard(shards[i]) != target
                }
            )
            for shard in foreign:
                if shard in lease_units:
                    continue  # already moved this round
                from_node = shard_map.owner_of_shard(shard)
                shard_map.migrate(shard, target, index)
                migrations.append((shard, from_node, target))
                unit.leases += 1
                lease_units[shard] = unit.uidx
        assignment[target].extend(chain)
        load[target] += len(chain)

    # Singletons bundle by anchor account and go to the account's owner;
    # an oversized commuting bundle — more ops than an even share of the
    # window — is sprayed across the least-loaded nodes instead
    # (hot-shard splitting), as is one whose owner is dead.
    target_load = math.ceil(len(window) / len(live))
    bundles: dict[int, list[int]] = {}
    for i in plan.singletons:
        bundles.setdefault(anchors[i], []).append(i)

    for account, bundle in sorted(
        bundles.items(), key=lambda kv: (-len(kv[1]), kv[0])
    ):
        if len(bundle) > target_load and len(live) > 1:
            hot_split += len(bundle)
            for i in bundle:
                node = min(live, key=by_load)
                assignment[node].append(i)
                load[node] += 1
        else:
            owner = shard_map.owner_of(account)
            node = owner if owner in live else min(live, key=by_load)
            assignment[node].extend(bundle)
            load[node] += len(bundle)

    # Overflow spill: while the heaviest node holds more than an even
    # share and at least two ops more than the lightest, shed its latest
    # commuting singleton (never a chain member) to the lightest.  Moving
    # a singleton anywhere is sound — it commutes with the entire window.
    spill = 0
    #: Nodes that may still shed: one holding only chain members is out.
    shedding = live if len(live) > 1 else []
    while shedding:
        heaviest = max(shedding, key=by_load)
        lightest = min(live, key=by_load)
        if load[heaviest] <= max(target_load, load[lightest] + 1):
            break
        members = assignment[heaviest]
        k = len(members) - 1
        while k >= 0 and in_chain[members[k]]:
            k -= 1
        if k < 0:
            # All chain members: this node's load is atomic; try others.
            shedding = [n for n in shedding if n != heaviest]
            continue
        assignment[lightest].append(members.pop(k))
        load[heaviest] -= 1
        load[lightest] += 1
        spill += 1

    # Synchronization: each contended cross-node component through its
    # cheapest adequate lane.  Every component is one batch on the
    # pool's clock: team-tier ones (owner set within the threshold) on
    # their team's lane, the rest on the pool's top lane.  A unit waits
    # only for its *own* component's batch.
    sync_round = SyncRoundResult()
    if escalated_components:
        sync_round = sync.order_assignments(
            [
                sync.planner.decide(team, component)
                for team, component, _ in escalated_components
            ]
        )
        for (_, _, unit), order in zip(
            escalated_components, sync_round.components
        ):
            unit.sync_delay = order.completed

    # The window is in submission order, so ascending indices are
    # ascending ``seq``.  Each node's singletons commute with the whole
    # window, so they share one residual unit (and one gate).
    placed: dict[int, list[PendingOp]] = {}
    owner_local = 0
    for node, members in assignment.items():
        if members:
            members.sort()
            placed[node] = [window[i] for i in members]
            owner_local += [home[i] for i in members].count(node)
            rest = [i for i in members if not in_chain[i]]
            if rest:
                add_unit(node, rest)
    return _Round(
        index=index,
        assignment=placed,
        sync=sync_round,
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
        lease_pending=migrations,
        pending_acks=len(migrations),
        stats=ClusterRound(
            index=index,
            window=len(window),
            owner_local_ops=owner_local,
            hot_split_ops=hot_split,
            spill_ops=spill,
            escalated_ops=escalated_ops,
            lease_migrations=len(migrations),
            nodes_used=len(placed),
            # A replay moves a unit, it does not add one.
            units_dispatched=len(units),
        ),
    )
