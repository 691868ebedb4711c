"""The sync planner: pick the minimal adequate ordering primitive per
contended component.

The trichotomy of lanes (the tentpole's tier table; see also
:mod:`repro.analysis.hierarchy`):

========  =======================  =====================================
tier      primitive                who pays
========  =======================  =====================================
Tier 0    none (owner-only)        uncontended traffic: lane/chain order
                                   is free — the consensus-number-1
                                   regime (CN = 1)
Tier *k*  team lane                a contended component whose spender
          (:mod:`repro.net.       bound has size ``k ≤ team_threshold``:
          team_lanes`)             a *k*-replica total-order instance,
                                   ``O(k²)`` messages, concurrent with
                                   every other team (CN = k, Thm 2–4)
Tier ∞    global lane              spender set above the threshold or
          (the same lane class,    not statically boundable (CN = ∞ is
          every replica on the     the only always-safe fallback)
          team)
========  =======================  =====================================

Tier 0 never reaches this module: a window's plan
(:func:`repro.engine.rounds.plan_window`) hands over only its *contended*
groups (synchronization groups), as indices into its ops and footprints,
so no footprint is computed here a second time.  The planner's job is
the Tier *k* / Tier ∞ split, sized by :func:`repro.sync.bounds.
component_team` — and any assignment it makes is *correct*; sizing only
moves the message bill and latency, never the outcome, because every
component is ordered in submission order whichever lane carries it (the
property suite checks serial equivalence for arbitrary thresholds).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro._records import record
from repro.errors import EngineError
from repro.objects.footprint import OpFootprint, accounts_in
from repro.sync.bounds import component_team

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.mempool import PendingOp

#: Tier of the global fallback lane.
TIER_GLOBAL = math.inf


@record(frozen=True, slots=True)
class SyncAssignment:
    """One contended component's lane assignment."""

    #: ``len(team)`` for a team lane, :data:`TIER_GLOBAL` for the fallback.
    tier: float
    #: Participants of the team lane; ``None`` on the global tier.
    team: frozenset[int] | None
    ops: tuple

    @property
    def is_team(self) -> bool:
        return self.team is not None


class SyncPlanner:
    """Tier selection for contended components.

    ``team_threshold`` is the largest team the planner will provision a
    lane for; ``0`` (this class's default — the configs set 4) disables
    team lanes entirely: every contended component takes the global lane.
    """

    def __init__(self, team_threshold: int = 0) -> None:
        if team_threshold < 0:
            raise EngineError("team_threshold must be non-negative")
        self.team_threshold = team_threshold

    # ------------------------------------------------------------------

    def decide(
        self, team: frozenset[int] | None, ops: tuple = ()
    ) -> SyncAssignment:
        """The assignment of ``ops`` given their pre-computed team: a
        team lane when the team fits the threshold, the global lane
        otherwise.  Called directly by callers that size teams
        themselves (the cluster's routing: a team is the owner nodes)."""
        if team is not None and 0 < len(team) <= self.team_threshold:
            return SyncAssignment(tier=len(team), team=team, ops=ops)
        return SyncAssignment(tier=TIER_GLOBAL, team=None, ops=ops)

    def assign(
        self,
        groups: Sequence[Sequence[int]],
        ops: Sequence[PendingOp],
        footprints: Sequence[OpFootprint | None],
        state=None,
        object_type=None,
    ) -> list[SyncAssignment]:
        """One assignment per contended group, in the given order.  A
        group is a list of indices into ``ops`` and ``footprints`` (a
        window's, aligned)."""
        assignments: list[SyncAssignment] = []
        for group in groups:
            if not group:
                raise EngineError("cannot assign an empty contended component")
            members = tuple(ops[i] for i in group)
            team = (
                component_team(
                    members,
                    [footprints[i] for i in group],
                    state,
                    object_type,
                )
                if self.team_threshold > 0
                else None
            )
            assignments.append(self.decide(team, members))
        return assignments

    # -- per-account synchronization-group splitting --------------------

    def split_groups(
        self,
        group: Sequence[int],
        footprints: Sequence[OpFootprint | None],
    ) -> list[list[int]]:
        """Partition one contended group (indices into ``footprints``)
        into its per-account synchronization groups: the connected
        components of the "shares a contended account" relation over its
        operations.

        Two operations in different groups race on disjoint accounts, so
        no single lane has to sequence them — their relative order is
        already stitched through chain order (the component's own
        submission-order scheduling).  Each group can then be sized by
        *its own* accounts' spender bounds, which keeps k small for
        merged chains whose union bound would blow the threshold.  Any
        unknown footprint collapses the component back into one group
        (the whole component).  Groups come out in submission order of
        their first operation (``group`` ascends); flattening them
        recovers ``group`` exactly.
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

    def assign_groups(
        self,
        groups: Sequence[Sequence[int]],
        ops: Sequence[PendingOp],
        footprints: Sequence[OpFootprint | None],
        state=None,
        object_type=None,
    ) -> list[list[SyncAssignment]]:
        """Per contended group: the assignments of its per-account
        synchronization groups (:meth:`split_groups`; one whole-group
        assignment when nothing splits)."""
        return [
            self.assign(
                self.split_groups(group, footprints),
                ops,
                footprints,
                state=state,
                object_type=object_type,
            )
            for group in groups
        ]
