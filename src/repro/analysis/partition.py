"""State partition ``Q_k``, predicate ``U``, synchronization states ``S_k``
(paper Eqs. 11, 13, 14).

* ``Q_k = {q : max_a |σ_q(a)| = k}`` — the partition cell of states whose
  maximal enabled-spender set has exactly ``k`` members (Eq. 11);
  :func:`synchronization_level` is the ``k`` of the cell ``q`` lies in.

* ``U(a, q)`` — "unique transfers" (Eq. 13): with ``σ = σ_q(a)``,

      U(a,q)  ⟺  β(a) > 0 ∧ (|σ| ≤ 2 ∨ ∀ p_i ≠ p_j ∈ σ \\ {ω(a)} :
                                      α(a,p_i) + α(a,p_j) > β(a))

* ``S_k = {q : ∃a, |σ_q(a)| = k ∧ U(a, q)}`` (Eq. 14) — the
  *k-synchronization states* from which Algorithm 1 solves consensus among
  the ``k`` spenders.

**Erratum (strengthened predicate).**  The literal ``U`` does not require
``α(a, p) ≤ β(a)``.  A spender whose allowance exceeds the balance fails its
``transferFrom`` even when it runs first, after which Algorithm 1 can decide
the content of a register that was never written (a validity violation —
mechanically exhibited in ``tests/protocols/test_algorithm1_erratum.py``).
:func:`unique_transfer_strict` adds the missing requirement
``0 < α(a,p) ≤ β(a)`` for every non-owner enabled spender; Theorem 2's
construction is verified by exploration under this strengthened predicate.
See README.md, Reproduction note 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.analysis.spenders import enabled_spenders, max_spenders, spender_map
from repro.errors import InvalidArgumentError
from repro.objects.erc20 import TokenState


def synchronization_level(state: TokenState) -> int:
    """``k(q) = max_a |σ_q(a)|``: the index of the cell ``Q_k`` containing
    ``q``.  Always ≥ 1, since the owner is always an enabled spender."""
    return max_spenders(state)


def unique_transfer(state: TokenState, account: int) -> bool:
    """The paper's literal predicate ``U(a, q)`` (Eq. 13)."""
    if state.balance(account) <= 0:
        return False
    spenders = enabled_spenders(state, account)
    if len(spenders) <= 2:
        return True
    owner = account
    others = sorted(spenders - {owner})
    return all(
        state.allowance(account, pi) + state.allowance(account, pj)
        > state.balance(account)
        for pi, pj in combinations(others, 2)
    )


def unique_transfer_strict(state: TokenState, account: int) -> bool:
    """Strengthened ``U*(a, q)``: literal ``U`` plus
    ``0 < α(a,p) ≤ β(a)`` for every enabled non-owner spender, which makes the
    "first completing transfer succeeds" argument of Theorem 2 sound."""
    if not unique_transfer(state, account):
        return False
    owner = account
    balance = state.balance(account)
    for pid in enabled_spenders(state, account) - {owner}:
        allowance = state.allowance(account, pid)
        if not 0 < allowance <= balance:
            return False
    return True


def is_synchronization_state(
    state: TokenState, k: int, strict: bool = True
) -> bool:
    """Membership ``q ∈ S_k`` (Eq. 14).

    Args:
        strict: Use the strengthened predicate ``U*`` (default), under which
            Algorithm 1 is correct; ``False`` uses the paper's literal ``U``.
    """
    predicate = unique_transfer_strict if strict else unique_transfer
    return any(
        len(enabled_spenders(state, account)) == k and predicate(state, account)
        for account in range(state.num_accounts)
    )


def synchronization_accounts(
    state: TokenState, k: int, strict: bool = True
) -> tuple[int, ...]:
    """All witness accounts for ``q ∈ S_k``: accounts with exactly ``k``
    enabled spenders satisfying the (strengthened) unique-transfer predicate."""
    predicate = unique_transfer_strict if strict else unique_transfer
    return tuple(
        account
        for account in range(state.num_accounts)
        if len(enabled_spenders(state, account)) == k and predicate(state, account)
    )


@dataclass(frozen=True, slots=True)
class StateClassification:
    """Full classification of a token state by the paper's taxonomy."""

    #: k(q): index of the partition cell Q_k containing q.
    level: int
    #: σ_q as a tuple of spender sets indexed by account.
    spenders: tuple[frozenset[int], ...]
    #: Largest k with q ∈ S_k under the strengthened predicate (0 if none).
    sync_level_strict: int
    #: Largest k with q ∈ S_k under the paper's literal predicate (0 if none).
    sync_level_literal: int
    #: Witness accounts for sync_level_strict.
    witnesses: tuple[int, ...]


def classify(state: TokenState) -> StateClassification:
    """Classify a state: its ``Q_k`` cell, σ map, and ``S_k`` memberships."""
    spenders = spender_map(state)
    level = max(len(s) for s in spenders)

    def best_sync_level(strict: bool) -> int:
        for k in range(level, 0, -1):
            if is_synchronization_state(state, k, strict=strict):
                return k
        return 0

    strict_level = best_sync_level(strict=True)
    return StateClassification(
        level=level,
        spenders=spenders,
        sync_level_strict=strict_level,
        sync_level_literal=best_sync_level(strict=False),
        witnesses=(
            synchronization_accounts(state, strict_level, strict=True)
            if strict_level > 0
            else ()
        ),
    )


def make_synchronization_state(
    num_accounts: int,
    k: int,
    account: int = 0,
    balance: int | None = None,
) -> TokenState:
    """Construct a canonical state in ``S_k`` (strict) for testing and for
    Algorithm 1 setups.

    The witness ``account`` holds ``balance`` tokens (default ``k``) and has
    approved ``k - 1`` distinct other processes, each with an allowance
    ``α`` such that ``α ≤ β`` and pairwise ``α_i + α_j > β`` — we use
    ``α = β`` for every spender, the simplest assignment satisfying ``U*``.
    """
    if not 1 <= k <= num_accounts:
        raise InvalidArgumentError("need 1 <= k <= num_accounts")
    if not 0 <= account < num_accounts:
        raise InvalidArgumentError("witness account out of range")
    amount = k if balance is None else balance
    if amount <= 0:
        raise InvalidArgumentError("witness balance must be positive")
    balances = [0] * num_accounts
    balances[account] = amount
    spenders = [pid for pid in range(num_accounts) if pid != account][: k - 1]
    allowances = {(account, pid): amount for pid in spenders}
    return TokenState.create(balances, allowances)
