"""Enabled spenders ``σ_q`` (paper Eq. 10).

For every state ``q = (β, α)``, ``σ_q : A → 2^Π`` maps each account to the
set of processes enabled to transfer tokens from it:

    σ_q(a) = {p ∈ Π : p = ω(a) ∨ α(a, p) > 0}

with the paper's convention that a zero-balance account has only its owner as
enabled spender: ``β(a) = 0 ⟹ σ_q(a) = {ω(a)}`` — a process with positive
allowance but no balance to draw on "would not be able to transfer tokens
from a unless the balance is increased".

The owner bijection is the identity (``ω(a_i) = p_i``, §4), so the owner of
account ``a`` is process ``a``.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import InvalidArgumentError
from repro.objects.erc20 import TokenState


def spenders_of(
    account: int, balance: int, allowances: Mapping[int, int]
) -> frozenset[int]:
    """``σ_q(a)`` from ``β(a)`` and ``a``'s allowance map ``{p: α(a, p)}``
    (Eq. 10): the owner, plus every positive allowance unless the balance is
    not positive.  ``<= 0``, not ``== 0``: a replica view's transiently
    negative balance (:mod:`repro.dynamic`) draws on nothing either."""
    if balance <= 0:
        return frozenset((account,))  # ω is the identity bijection
    return frozenset(
        [account, *(pid for pid, amount in allowances.items() if amount > 0)]
    )


def enabled_spenders(state: TokenState, account: int) -> frozenset[int]:
    """``σ_q(a)`` for a single account (Eq. 10)."""
    if not 0 <= account < state.num_accounts:
        raise InvalidArgumentError(f"unknown account {account!r}")
    return spenders_of(
        account, state.balances[account], state.allowances_of(account)
    )


def spender_map(state: TokenState) -> tuple[frozenset[int], ...]:
    """The full mapping ``σ_q`` as a tuple indexed by account."""
    return tuple(
        enabled_spenders(state, account)
        for account in range(state.num_accounts)
    )


def max_spenders(state: TokenState) -> int:
    """``max_a |σ_q(a)|`` — the quantity partitioning ``Q`` in Eq. 11."""
    return max(len(spenders) for spenders in spender_map(state))


def accounts_with_spender_count(state: TokenState, k: int) -> tuple[int, ...]:
    """Accounts ``a`` with exactly ``|σ_q(a)| = k`` enabled spenders."""
    return tuple(
        account
        for account, spenders in enumerate(spender_map(state))
        if len(spenders) == k
    )


def potential_spenders(state: TokenState, account: int) -> frozenset[int]:
    """``{ω(a)} ∪ {p : α(a, p) > 0}`` *without* the zero-balance convention.

    This is the set Algorithm 2's approve guard actually counts (its line 17
    reads allowance registers only, never the balance): processes that would
    become enabled as soon as the account is funded.  It always contains
    ``σ_q(a)``; the two coincide whenever ``β(a) > 0``.
    """
    if not 0 <= account < state.num_accounts:
        raise InvalidArgumentError(f"unknown account {account!r}")
    return frozenset((account, *state.allowances_of(account)))  # ω: identity


def potential_level(state: TokenState) -> int:
    """``max_a`` of the potential-spender count — the invariant Algorithm 2
    preserves (an upper bound on the synchronization level ``k(q)``)."""
    return max(
        len(potential_spenders(state, account))
        for account in range(state.num_accounts)
    )
