"""Tiered escalation: route each contended component to its cheapest lane.

:class:`TieredEscalator` is the whole sync layer, built in one place: the
:class:`~repro.sync.planner.SyncPlanner` decides, per contended
conflict-graph component, whether a team lane (a *k*-replica total-order
instance from the shared :class:`~repro.net.team_lanes.TeamLanePool`)
suffices or the global lane — the same
:class:`~repro.net.team_lanes.TeamLane` class with every replica on its
team, on a simulator of its own — must be paid.  All of a round's
global-tier operations merge into **one**
submission-ordered batch through the global lane while every team-tier
component runs concurrently on the pool; the round's synchronization
phase therefore costs ``max(global lane, slowest team)``, and with
``team_threshold = 0`` (the configs default to 4) the tiered path *is*
always-global escalation.

The serial-equivalence contract is enforced here, not trusted: every
lane must commit its operations in submission order (the deterministic
merge the engine's correctness argument requires), and a violation raises
immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import EngineError
from repro.net.team_lanes import TeamLane, TeamLanePool
from repro.sync.planner import TIER_GLOBAL, SyncAssignment, SyncPlanner

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rounds import WindowPlan


@dataclass(frozen=True, slots=True)
class ComponentOrder:
    """Outcome of ordering one contended component."""

    tier: float
    team: frozenset[int] | None
    ordered: tuple
    #: Virtual completion within the round's sync phase (when this
    #: component's order is known; trailing quorum traffic may run later).
    completed: float


@dataclass
class SyncRoundResult:
    """Outcome of one round's synchronization phase across all tiers."""

    components: list[ComponentOrder] = field(default_factory=list)
    #: Phase makespan: global lane and team pool run concurrently.
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


class TieredEscalator:
    """Consensus-number-tiered ordering for contended components.

    The one place the sync layer is built: the planner, the team-lane
    pool and — unless handed one — the standard Tier ∞ lane, a four-replica
    :class:`~repro.net.team_lanes.TeamLane` seeded like the pool.  A
    caller passes ``global_lane`` only to size the top lane (the paper's
    ``O(n²)`` baseline is a lane over all *n* accounts).
    ``team_threshold`` and ``lane_ttl`` are required: the defaults live
    in :mod:`repro.config`, not here.  ``lane_ttl`` garbage-collects team
    lanes idle for that many sync rounds (``None`` keeps them forever), so
    long runs over shifting approval patterns do not accumulate one live
    replica group per distinct team.
    """

    def __init__(
        self,
        global_lane: TeamLane | None = None,
        *,
        team_threshold: int,
        lane_ttl: int | None,
        seed: int = 0,
    ) -> None:
        if global_lane is None:
            global_lane = TeamLane(range(4), seed=seed)
        if global_lane.k < 4:
            raise EngineError(
                "total order needs n >= 3f+1 with f >= 1: use >= 4"
            )
        self.global_lane = global_lane
        self.planner = SyncPlanner(team_threshold)
        self.pool = TeamLanePool(seed=seed, idle_ttl=lane_ttl)

    # ------------------------------------------------------------------

    @property
    def team_threshold(self) -> int:
        return self.planner.team_threshold

    def order_round(
        self, plan: WindowPlan, state=None, object_type=None
    ) -> SyncRoundResult:
        """Plan and order one window's contended groups (engine path).

        Each of ``plan.contended_groups`` is first partitioned into its
        per-account synchronization groups — every group ordered on its
        own (smaller) lane, all of them concurrent — and the sub-orders
        are folded back into **one** :class:`ComponentOrder` per contended
        group, so callers keep zipping ``plan.contended_groups`` against
        the result positionally.  Folding is sound because every lane
        commits in submission order and groups race on disjoint accounts:
        the merged submission order *is* each lane's order interleaved,
        and the cross-group order is stitched through chain order by the
        component's own scheduling.  Teams are sized from the plan's
        footprints.
        """
        grouped = self.planner.assign_groups(
            plan.contended_groups,
            plan.ops,
            plan.footprints,
            state=state,
            object_type=object_type,
        )
        flat = [assignment for group in grouped for assignment in group]
        result = self.order_assignments(flat)
        if len(flat) == len(grouped):
            return result
        folded: list[ComponentOrder] = []
        cursor = 0
        for group in grouped:
            orders = result.components[cursor : cursor + len(group)]
            cursor += len(group)
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
        self, assignments: Sequence[SyncAssignment]
    ) -> SyncRoundResult:
        """Order pre-planned assignments (cluster path: the router sizes
        teams by owner nodes itself)."""
        result = SyncRoundResult(components=[None] * len(assignments))
        if not assignments:
            return result

        # Tier ∞ — one submission-ordered batch through the global lane.
        global_index = [i for i, a in enumerate(assignments) if not a.is_team]
        global_time = 0.0
        if global_index:
            merged = sorted(
                (op for i in global_index for op in assignments[i].ops),
                key=lambda op: op.seq,
            )
            global_round = self.global_lane.order(merged)
            cursor = {
                id(op): pos
                for pos, op in enumerate(global_round.orders[0].ordered)
            }
            # Full quiescence, trailing quorum messages included.
            global_time = global_round.makespan
            result.global_messages = global_round.messages
            result.global_ops = len(merged)
            for i in global_index:
                ops = assignments[i].ops
                committed = tuple(sorted(ops, key=lambda op: cursor[id(op)]))
                self._check_order(committed, ops, "global lane")
                result.components[i] = ComponentOrder(
                    tier=TIER_GLOBAL,
                    team=None,
                    ordered=committed,
                    completed=global_time,
                )

        # Tier k — every team component concurrently on the shared pool.
        team_index = [i for i, a in enumerate(assignments) if a.is_team]
        pool_round = self.pool.order(
            [(assignments[i].team, assignments[i].ops) for i in team_index]
        )
        for i, lane_order in zip(team_index, pool_round.orders):
            ops = assignments[i].ops
            self._check_order(
                lane_order.ordered, ops, f"team lane {sorted(lane_order.team)}"
            )
            result.components[i] = ComponentOrder(
                tier=len(lane_order.team),
                team=lane_order.team,
                ordered=lane_order.ordered,
                completed=lane_order.completed,
            )
            result.team_ops += len(ops)
        result.team_sizes = tuple(len(assignments[i].team) for i in team_index)
        result.teams = pool_round.teams
        result.team_messages = pool_round.messages
        result.messages = result.team_messages + result.global_messages
        result.virtual_time = max(global_time, pool_round.makespan)
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _check_order(committed: tuple, submitted: tuple, lane: str) -> None:
        if tuple(committed) != tuple(submitted):
            raise EngineError(
                f"{lane} committed operations out of submission order; "
                "deterministic merge would diverge from the serial "
                "specification"
            )
