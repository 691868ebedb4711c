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

from repro.analysis.spenders import spenders_of


@dataclass
class ReplicaTokenState:
    """Mutable per-replica token state (balances may be transiently negative
    while credits are in flight; see the eventual-consistency discussion in
    :mod:`repro.dynamic.dynamic_token`).  ``allowances[a]`` is account
    ``a``'s map ``{spender: amount}`` of positive allowances, absent meaning
    0 — the shape :class:`repro.objects.erc20.TokenState` stores."""

    balances: list[int]
    allowances: list[dict[int, int]]

    @classmethod
    def create(
        cls, num_accounts: int, deployer: int, supply: int
    ) -> "ReplicaTokenState":
        balances = [0] * num_accounts
        balances[deployer] = supply
        return cls(balances, [{} for _ in range(num_accounts)])

    def copy(self) -> "ReplicaTokenState":
        return ReplicaTokenState(
            list(self.balances), [dict(row) for row in self.allowances]
        )

    def snapshot(self) -> tuple:
        """Hashable snapshot for convergence assertions: β, and per account
        its sorted ``(spender, amount)`` pairs."""
        return (
            tuple(self.balances),
            tuple(tuple(sorted(row.items())) for row in self.allowances),
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
