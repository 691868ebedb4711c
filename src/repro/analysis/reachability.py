"""Reachability between synchronization levels (paper Eq. 12 and §5.2).

The paper observes that for every ``q ∈ Q_k`` there is a valid transition

    (q, p, approve, TRUE, q')   with   q' ∈ Q_{k+1}           (Eq. 12)

"the only way to do so is by letting the owner of a k-spender account
approve a new spender", and conversely that reaching a synchronization state
from ``q0`` requires a *specific sequence of successful approve operations*
— hence cannot be done wait-free (the approving owner may crash), which is
why ``CN(T_{S_n}) = n`` does not contradict ``CN(T_{q0}) = 1``.

This module provides:

* :func:`raising_approvals` — the approve steps realizing Eq. 12 from a state;
* :func:`level_trajectory` — the sequence ``k(q_0), k(q_1), …`` along an
  execution, used by experiment E5;
* :func:`escalation_plan` — a schedule of operations taking ``q0`` into a
  target ``S_k`` (the non-wait-free preparation phase);
* :func:`verify_level_change_ops` — checks that along an execution the level
  increases **only** at successful ``approve`` steps (the other operations can
  only preserve or lower it).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro._records import record
from repro.analysis.partition import synchronization_level
from repro.analysis.spenders import (
    accounts_with_spender_count,
    enabled_spenders,
)
from repro.errors import InvalidArgumentError
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.spec.operation import Operation


@record(frozen=True, slots=True)
class RaisingApproval:
    """A witness for Eq. 12: an approve step lifting ``q ∈ Q_k`` to ``Q_{k+1}``."""

    pid: int
    operation: Operation
    account: int
    new_spender: int


def raising_approvals(state: TokenState) -> tuple[RaisingApproval, ...]:
    """All single `approve` steps that raise the synchronization level.

    Eq. 12 asserts at least one exists whenever some account with the maximal
    spender count has a positive balance and a non-enabled process left; each
    witness approves a *new* spender on a maximal account.
    """
    level = synchronization_level(state)
    witnesses: list[RaisingApproval] = []
    for account in accounts_with_spender_count(state, level):
        if state.balance(account) == 0:
            continue  # zero-balance accounts stay owner-only (Eq. 10 convention)
        owner = account
        current = enabled_spenders(state, account)
        for pid in range(state.num_accounts):
            if pid in current:
                continue
            operation = Operation("approve", (pid, state.balance(account)))
            witnesses.append(
                RaisingApproval(
                    pid=owner,
                    operation=operation,
                    account=account,
                    new_spender=pid,
                )
            )
    return tuple(witnesses)


def level_trajectory(
    token_type: ERC20TokenType,
    invocations: Iterable[tuple[int, Operation]],
    initial_state: TokenState | None = None,
) -> list[tuple[int, TokenState]]:
    """Evolution of ``k(q)`` along a sequential execution.

    Returns the list of ``(level, state)`` pairs including the initial state,
    so an execution of ``m`` operations yields ``m + 1`` entries.
    """
    state = (
        token_type.initial_state() if initial_state is None else initial_state
    )
    trajectory = [(synchronization_level(state), state)]
    for pid, operation in invocations:
        state, _ = token_type.apply(state, pid, operation)
        trajectory.append((synchronization_level(state), state))
    return trajectory


def verify_level_change_ops(
    token_type: ERC20TokenType,
    invocations: Sequence[tuple[int, Operation]],
    initial_state: TokenState | None = None,
) -> list[str]:
    """Check the paper's claim that the level **increases only via approve**
    (and, symmetrically, which operations may lower it).

    Returns a list of human-readable violations; empty means the claim holds
    on this execution.  Operations that may *raise* ``k(q)``: ``approve`` and
    — through the zero-balance convention of Eq. 10 — any transfer that funds
    a previously empty account with pre-existing allowances.  The paper's
    Eq. 12 statement concerns the canonical case where balances are positive;
    the checker reports the funding-transfer case separately rather than as a
    violation.
    """
    violations: list[str] = []
    state = (
        token_type.initial_state() if initial_state is None else initial_state
    )
    level = synchronization_level(state)
    for step, (pid, operation) in enumerate(invocations):
        successor, response = token_type.apply(state, pid, operation)
        new_level = synchronization_level(successor)
        if new_level > level:
            raised_by_approve = operation.name == "approve" and response is True
            raised_by_funding = operation.name in ("transfer", "transferFrom")
            if not (raised_by_approve or raised_by_funding):
                violations.append(
                    f"step {step}: level {level} -> {new_level} caused by "
                    f"{operation} (expected approve or funding transfer)"
                )
        state, level = successor, new_level
    return violations


def escalation_plan(
    num_accounts: int,
    k: int,
    account: int = 0,
    supply: int | None = None,
) -> list[tuple[int, Operation]]:
    """A sequential schedule taking the deployed state ``q0`` into ``S_k``.

    The owner of ``account`` approves ``k - 1`` other processes, each with
    allowance equal to the account balance (satisfying the strengthened
    ``U*``).  If the deployer is not the witness account, a funding transfer
    is prepended.  The schedule consists of at most ``1 + (k-1)`` operations,
    every one of which must *succeed* — this is exactly the non-wait-free
    preparation the paper discusses before Theorem 3.
    """
    if not 1 <= k <= num_accounts:
        raise InvalidArgumentError("need 1 <= k <= num_accounts")
    amount = k if supply is None else supply
    if amount <= 0:
        raise InvalidArgumentError("supply must be positive")
    plan: list[tuple[int, Operation]] = []
    deployer = 0
    if account != deployer:
        plan.append((deployer, Operation("transfer", (account, amount))))
    spenders = [pid for pid in range(num_accounts) if pid != account][: k - 1]
    for pid in spenders:
        plan.append((account, Operation("approve", (pid, amount))))
    return plan
