"""Tracking the dynamic synchronization requirement per account (§7).

"The exact synchronization requirements can be readily deduced from the
current object's state q by reading the current balances and allowances."

Replicas of the dynamic token network maintain mutable balance/allowance
arrays; this module derives, from such a replica view, the current enabled
spender set ``σ_q(a)`` per account — the *synchronization group* whose
members must coordinate on ``transferFrom`` operations — and summary
statistics used by the experiments (group-size histograms over time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.spenders import spenders_of


@dataclass
class ReplicaTokenState:
    """Mutable per-replica token state (balances may be transiently negative
    while credits are in flight; see the eventual-consistency discussion in
    :mod:`repro.dynamic.dynamic_token`)."""

    balances: list[int]
    allowances: list[list[int]]

    @classmethod
    def create(
        cls, num_accounts: int, deployer: int, supply: int
    ) -> "ReplicaTokenState":
        balances = [0] * num_accounts
        balances[deployer] = supply
        allowances = [[0] * num_accounts for _ in range(num_accounts)]
        return cls(balances, allowances)

    def copy(self) -> "ReplicaTokenState":
        return ReplicaTokenState(
            list(self.balances), [list(row) for row in self.allowances]
        )

    def snapshot(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Hashable snapshot for convergence assertions."""
        return (
            tuple(self.balances),
            tuple(tuple(row) for row in self.allowances),
        )


def sync_group(state: ReplicaTokenState, account: int) -> frozenset[int]:
    """``σ_q(a)`` on a replica view: Eq. 10's one derivation,
    :func:`repro.analysis.spenders.spenders_of`."""
    return spenders_of(
        account, state.balances[account], state.allowances[account]
    )


def sync_levels(state: ReplicaTokenState) -> list[int]:
    """Group size per account."""
    return [
        len(sync_group(state, account))
        for account in range(len(state.balances))
    ]


@dataclass
class GroupSizeTracker:
    """Records the evolution of per-account group sizes over (virtual) time."""

    samples: list[tuple[float, list[int]]] = field(default_factory=list)

    def record(self, now: float, state: ReplicaTokenState) -> None:
        self.samples.append((now, sync_levels(state)))

    def max_level_seen(self) -> int:
        return max(
            (max(levels) for _, levels in self.samples),
            default=1,
        )

    def level_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for _, levels in self.samples:
            for level in levels:
                histogram[level] = histogram.get(level, 0) + 1
        return histogram


def group_coordination_cost(group: Iterable[int]) -> int:
    """Messages of one group ordering round: a propose to and an ack from
    every member other than the coordinating owner."""
    members = set(group)
    return 2 * max(len(members) - 1, 0)
