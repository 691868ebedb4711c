"""Tiered escalation: route each contended component to its cheapest lane.

:class:`TieredEscalator` is the whole sync layer, built in one place: the
:class:`~repro.sync.planner.SyncPlanner` decides, per contended
conflict-graph component, whether a team lane (a *k*-replica total-order
instance from the shared :class:`~repro.net.team_lanes.TeamLanePool`)
suffices or the global lane — the pool's top lane, every replica on its
team — must be paid.  Every component of a round is one batch of **one**
:meth:`~repro.net.team_lanes.TeamLanePool.order` call on one clock: the
lanes run concurrently, each component completes at its own batch's last
delivery, and the phase costs the slowest lane.  With
``team_threshold = 0`` (the configs default to 4) the tiered path *is*
always-global escalation.

The serial-equivalence contract is enforced here, not trusted: every
lane must commit its operations in submission order (the deterministic
merge the engine's correctness argument requires), and a violation raises
immediately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro._records import field, record
from repro.errors import EngineError
from repro.net.team_lanes import TeamLanePool
from repro.sync.planner import SyncAssignment, SyncPlanner

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rounds import WindowPlan


@record(frozen=True, slots=True)
class ComponentOrder:
    """Outcome of ordering one contended component."""

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


class TieredEscalator:
    """Consensus-number-tiered ordering for contended components.

    The one place the sync layer is built: the planner and the team-lane
    pool, whose top lane over ``replicas`` nodes (``global_lane``) is
    Tier ∞.  ``team_threshold`` is required: the default lives in
    :mod:`repro.config`, not here.  A team lane, once built, lives as long
    as the pool (one per distinct team the run ever ordered).
    """

    def __init__(
        self,
        replicas: int = 4,
        *,
        team_threshold: int,
        seed: int = 0,
    ) -> None:
        self.planner = SyncPlanner(team_threshold)
        self.pool = TeamLanePool(seed=seed, replicas=replicas)
        self.global_lane = self.pool.top

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
        pool_round = self.pool.order([(a.team, a.ops) for a in assignments])
        result = SyncRoundResult(
            virtual_time=pool_round.makespan,
            messages=pool_round.messages,
            teams=pool_round.teams,
            team_sizes=tuple(len(a.team) for a in assignments if a.is_team),
        )
        for a, order in zip(assignments, pool_round.orders):
            lane = f"team lane {sorted(a.team)}" if a.is_team else "global lane"
            self._check_order(order.ordered, a.ops, lane)
            result.components.append(
                ComponentOrder(a.tier, a.team, order.ordered, order.completed)
            )
            if a.is_team:
                result.team_ops += len(a.ops)
                result.team_messages += order.messages
            else:
                result.global_ops += len(a.ops)
                result.global_messages += order.messages
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
