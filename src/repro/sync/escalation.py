"""Tiered escalation: route each contended component to its cheapest lane.

:class:`TieredEscalator` is the whole sync layer, built in one place: per
contended race it picks a team lane (a *k*-replica total-order instance
from the shared :class:`~repro.net.team_lanes.TeamLanePool`) when the
race's team fits ``team_threshold``, or the global lane — the pool's top
lane, every replica on its team — otherwise (the tiers of
:mod:`repro.sync`).  A team is sized by the object type itself: the union
of :meth:`~repro.spec.object_type.SequentialObjectType.spender_bound`
over the accounts the race contends on, plus the racing processes; the
hook returns a superset of the enabled spenders ``σ_q(a)`` (Eq. 10) or
``None`` (global lane), so a team lane is always strong enough for its
race.  Every component of a round is one batch of **one**
:meth:`~repro.net.team_lanes.TeamLanePool.order` call on one clock: the
lanes run concurrently, each component completes at its own batch's last
delivery, and the phase costs the slowest lane.  With
``team_threshold = 0`` (the configs default to 4) the tiered path *is*
always-global escalation.

Any tier assignment is *correct*: sizing moves the message bill, never
the outcome.  That contract is enforced here, not trusted: every lane
must commit its operations in submission order (the deterministic merge
the engine's correctness argument requires), and a violation raises
immediately.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro._records import field, record
from repro.errors import EngineError
from repro.net.team_lanes import TeamLanePool
from repro.objects.footprint import OpFootprint, accounts_in

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.mempool import PendingOp
    from repro.engine.rounds import WindowPlan


@record(frozen=True, slots=True)
class ComponentOrder:
    """Outcome of ordering one contended component."""

    #: ``len(team)`` on a team lane, ``math.inf`` on the global lane.
    tier: float
    team: frozenset[int] | None
    ordered: tuple
    #: Virtual completion within the round's sync phase (when this
    #: component's order is known; trailing quorum traffic may run later).
    completed: float


@record
class SyncRoundResult:
    """Outcome of one round's synchronization phase across all tiers."""

    components: list[ComponentOrder] = field(default_factory=list)
    #: Phase makespan: every lane runs concurrently on the pool's clock.
    virtual_time: float = 0.0
    messages: int = 0
    team_messages: int = 0
    global_messages: int = 0
    team_ops: int = 0
    global_ops: int = 0
    #: Distinct team lanes active this round (the concurrency the pool bought).
    teams: int = 0
    #: Team size per team-tier component (the k-distribution's raw data).
    team_sizes: tuple[int, ...] = ()


def split_groups(
    group: Sequence[int], footprints: Sequence[OpFootprint | None]
) -> list[list[int]]:
    """Partition one contended group (indices into ``footprints``) into
    its per-account synchronization groups: the connected components of
    the "shares a contended account" relation over its operations.

    Two operations in different groups race on disjoint accounts, so no
    single lane has to sequence them — their relative order is already
    stitched through chain order (the component's own submission-order
    scheduling).  Each group is then sized by *its own* accounts' bounds,
    which keeps k small for merged chains whose union bound would blow
    the threshold.  Any unknown footprint collapses the component back
    into one group.  Groups come out in submission order of their first
    operation (``group`` ascends); flattening them recovers ``group``.
    """
    group_of_account: dict[int, int] = {}
    parent = list(range(len(group)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for k, i in enumerate(group):
        fp = footprints[i]
        if fp is None:
            return [list(group)]
        for account in accounts_in(fp.contended):
            holder = group_of_account.setdefault(account, k)
            root_a, root_b = find(holder), find(k)
            if root_a != root_b:
                parent[max(root_a, root_b)] = min(root_a, root_b)
    members: dict[int, list[int]] = {}
    for k, i in enumerate(group):
        members.setdefault(find(k), []).append(i)
    return [members[root] for root in sorted(members)]


def component_team(
    ops: Sequence[PendingOp],
    footprints: Sequence[OpFootprint | None],
    state,
    object_type,
) -> frozenset[int] | None:
    """The synchronization team of one contended group: the union of
    ``object_type.spender_bound(state, a)`` over every account ``a`` the
    group contends on, plus the submitting processes themselves.
    ``footprints`` are the ops' static footprints, aligned with ``ops``.

    Returns ``None`` — meaning "order this through the global lane" — when
    no ``state`` or ``object_type`` is given, any footprint is unknown, or
    any contended account lacks a bound.
    """
    if state is None or object_type is None:
        return None
    team: set[int] = set()
    accounts: set[int] = set()
    for op, fp in zip(ops, footprints, strict=True):
        if fp is None:
            return None
        accounts.update(accounts_in(fp.contended))
        team.add(op.pid)
    for account in sorted(accounts):
        bound = object_type.spender_bound(state, account)
        if bound is None:
            return None
        team.update(bound)
    return frozenset(team)


class TieredEscalator:
    """Consensus-number-tiered ordering for contended components.

    The one place the sync layer is built: the tier rule and the
    team-lane pool, whose top lane over ``replicas`` nodes
    (``global_lane``) is Tier ∞.  ``team_threshold`` is the largest team
    a lane is provisioned for (``0``: every race takes the global lane);
    it is required, the default lives in :mod:`repro.config`.  A team
    lane, once built, lives as long as the pool (one per distinct team
    the run ever ordered).
    """

    def __init__(
        self,
        replicas: int = 4,
        *,
        team_threshold: int,
        seed: int = 0,
    ) -> None:
        if team_threshold < 0:
            raise EngineError("team_threshold must be non-negative")
        self.team_threshold = team_threshold
        self.pool = TeamLanePool(seed=seed, replicas=replicas)
        self.global_lane = self.pool.top

    # ------------------------------------------------------------------

    def decide(
        self, team: frozenset[int] | None, ops: tuple
    ) -> tuple[frozenset[int] | None, tuple]:
        """The ``(team, ops)`` batch :meth:`order_assignments` orders: the
        team's own lane when it fits the threshold, the global lane
        (``None``) otherwise.  The cluster's routing calls it with teams
        it sized itself (a team is the owner nodes)."""
        if team is not None and 0 < len(team) <= self.team_threshold:
            return team, ops
        return None, ops

    def order_round(
        self, plan: WindowPlan, state=None, object_type=None
    ) -> SyncRoundResult:
        """Plan and order one window's contended groups (engine path).

        Each of ``plan.contended_groups`` is first partitioned into its
        per-account synchronization groups (:func:`split_groups`), each
        sized through :func:`component_team` at ``state`` and ordered on
        its own (smaller) lane, all of them concurrent — and the
        sub-orders are folded back into **one** :class:`ComponentOrder`
        per contended group, so callers keep zipping
        ``plan.contended_groups`` against the result positionally.
        Folding is sound because every lane commits in submission order
        and groups race on disjoint accounts: the merged submission order
        *is* each lane's order interleaved, and the cross-group order is
        stitched through chain order by the component's own scheduling.
        """
        grouped: list[list[tuple]] = []
        for group in plan.contended_groups:
            batches = []
            for split in split_groups(group, plan.footprints):
                ops = tuple(plan.ops[i] for i in split)
                team = None
                if self.team_threshold:
                    fps = [plan.footprints[i] for i in split]
                    team = component_team(ops, fps, state, object_type)
                batches.append(self.decide(team, ops))
            grouped.append(batches)
        flat = [batch for batches in grouped for batch in batches]
        result = self.order_assignments(flat)
        if len(flat) == len(grouped):
            return result
        folded: list[ComponentOrder] = []
        cursor = 0
        for batches in grouped:
            orders = result.components[cursor : cursor + len(batches)]
            cursor += len(batches)
            if len(orders) == 1:
                folded.append(orders[0])
                continue
            teams = [order.team for order in orders]
            folded.append(
                ComponentOrder(
                    tier=max(order.tier for order in orders),
                    team=(
                        None
                        if any(team is None for team in teams)
                        else frozenset().union(*teams)
                    ),
                    ordered=tuple(
                        sorted(
                            (op for order in orders for op in order.ordered),
                            key=lambda op: op.seq,
                        )
                    ),
                    # The component's order is known once its slowest
                    # group's lane committed.
                    completed=max(order.completed for order in orders),
                )
            )
        result.components = folded
        return result

    def order_assignments(
        self, batches: Sequence[tuple[frozenset[int] | None, tuple]]
    ) -> SyncRoundResult:
        """Order :meth:`decide`'s ``(team, ops)`` batches as one pool
        round, each checked to commit in submission order."""
        pool_round = self.pool.order(batches)
        result = SyncRoundResult(
            virtual_time=pool_round.makespan,
            messages=pool_round.messages,
            teams=pool_round.teams,
            team_sizes=tuple(len(t) for t, _ in batches if t is not None),
        )
        for (team, ops), order in zip(batches, pool_round.orders):
            if tuple(order.ordered) != tuple(ops):
                lane = (
                    "global lane"
                    if team is None
                    else f"team lane {sorted(team)}"
                )
                raise EngineError(
                    f"{lane} committed operations out of submission order; "
                    "deterministic merge would diverge from the serial "
                    "specification"
                )
            tier = math.inf if team is None else len(team)
            result.components.append(
                ComponentOrder(tier, team, order.ordered, order.completed)
            )
            if team is None:
                result.global_ops += len(ops)
                result.global_messages += order.messages
            else:
                result.team_ops += len(ops)
                result.team_messages += order.messages
        return result
