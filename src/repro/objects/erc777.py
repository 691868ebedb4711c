"""The ERC777 token object (paper §6; EIP-777).

ERC777 keeps ERC20's fungible-token semantics but replaces bounded
allowances with *operators*: "an operator p' in ERC777 is allowed to spend
all the tokens owned by the approving process p" (§6).  A holder is always an
operator for itself (EIP-777 mandates this).

The paper notes that both Algorithm 1 and Algorithm 2 "can be adapted by
replacing the approved spenders with the corresponding operators"; the
adaptation lives in :mod:`repro.protocols.erc777_consensus`.

Hooks (the EIP's send/receive callbacks) are modelled as no-ops: they do not
affect the synchronization analysis, and §6 of the paper does not analyze
them either.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro._records import record
from repro.errors import InvalidArgumentError
from repro.objects.base import AccountType, SharedObject, with_operator
from repro.runtime.calls import OpCall
from repro.spec.object_type import FALSE, TRUE
from repro.spec.operation import Operation


@record(frozen=True, slots=True)
class ERC777State:
    """Balances plus per-holder operator sets."""

    balances: tuple[int, ...]
    operators: tuple[frozenset[int], ...]

    def balance(self, account: int) -> int:
        return self.balances[account]

    def is_operator_for(self, operator: int, holder: int) -> bool:
        # EIP-777: an address is always an operator for itself.
        return operator == holder or operator in self.operators[holder]

    def with_transfer(
        self, source: int, dest: int, value: int
    ) -> "ERC777State":
        balances = list(self.balances)
        balances[source] -= value
        balances[dest] += value
        return ERC777State(tuple(balances), self.operators)


class ERC777TokenType(AccountType):
    """Sequential specification of an ERC777 contract."""

    name = "erc777"

    def __init__(self, initial_balances: Sequence[int]) -> None:
        balances = tuple(int(b) for b in initial_balances)
        if any(b < 0 for b in balances):
            raise InvalidArgumentError("balances must be non-negative")
        self.num_accounts = len(balances)
        if self.num_accounts == 0:
            raise InvalidArgumentError("need at least one account")
        self._initial = ERC777State(
            balances, tuple(frozenset() for _ in balances)
        )

    def initial_state(self) -> ERC777State:
        return self._initial

    def operation_names(self) -> tuple[str, ...]:
        return (
            "send",
            "operatorSend",
            "authorizeOperator",
            "revokeOperator",
            "isOperatorFor",
            "balanceOf",
            "totalSupply",
        )

    def _apply_send(
        self, state: ERC777State, pid: int, dest: int, value: int
    ) -> tuple[ERC777State, Any]:
        self._check_account(dest)
        self._check_value(value)
        if state.balance(pid) < value:
            return state, FALSE
        return state.with_transfer(pid, dest, value), TRUE

    def _apply_operatorSend(
        self, state: ERC777State, pid: int, source: int, dest: int, value: int
    ) -> tuple[ERC777State, Any]:
        self._check_account(source)
        self._check_account(dest)
        self._check_value(value)
        if (
            not state.is_operator_for(pid, source)
            or state.balance(source) < value
        ):
            return state, FALSE
        return state.with_transfer(source, dest, value), TRUE

    def _apply_authorizeOperator(
        self, state: ERC777State, pid: int, operator: int
    ) -> tuple[ERC777State, Any]:
        self._check_account(operator)
        if operator == pid:
            return state, FALSE  # EIP-777 reverts on self-(de)authorization
        return with_operator(state, pid, operator, True), TRUE

    def _apply_revokeOperator(
        self, state: ERC777State, pid: int, operator: int
    ) -> tuple[ERC777State, Any]:
        self._check_account(operator)
        if operator == pid:
            return state, FALSE
        return with_operator(state, pid, operator, False), TRUE

    def _apply_isOperatorFor(
        self, state: ERC777State, pid: int, operator: int, holder: int
    ) -> tuple[ERC777State, Any]:
        self._check_account(operator)
        self._check_account(holder)
        return state, state.is_operator_for(operator, holder)

    def _apply_totalSupply(
        self, state: ERC777State, pid: int
    ) -> tuple[ERC777State, Any]:
        return state, sum(state.balances)


class ERC777Token(SharedObject):
    """Runtime ERC777 object with ergonomic call builders."""

    def __init__(
        self, initial_balances: Sequence[int], name: str | None = None
    ) -> None:
        super().__init__(ERC777TokenType(initial_balances), name=name)

    def send(self, dest: int, value: int) -> OpCall:
        return self.call(Operation("send", (dest, value)))

    def operator_send(self, source: int, dest: int, value: int) -> OpCall:
        return self.call(Operation("operatorSend", (source, dest, value)))

    def authorize_operator(self, operator: int) -> OpCall:
        return self.call(Operation("authorizeOperator", (operator,)))

    def revoke_operator(self, operator: int) -> OpCall:
        return self.call(Operation("revokeOperator", (operator,)))

    def is_operator_for(self, operator: int, holder: int) -> OpCall:
        return self.call(Operation("isOperatorFor", (operator, holder)))

    def balance_of(self, account: int) -> OpCall:
        return self.call(Operation("balanceOf", (account,)))

    def total_supply(self) -> OpCall:
        return self.call(Operation("totalSupply"))
