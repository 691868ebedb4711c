"""The ERC1155 multi-token object (paper §6; EIP-1155).

ERC1155 manages multiple token types in one contract and supports *batched*
transfers: "it specifies methods that enable the execution of a number of
transactions, possibly on different token types, or involving various source
and target accounts, within a single method-call" (§6).  Authorization is by
all-token operators (``setApprovalForAll``), as in the EIP.

The paper conjectures ERC1155 inherits ERC20's synchronization requirements
but leaves the formal analysis open; we provide the object so the analysis
toolkit (spender sets, commutativity) can be applied to it, and tests explore
the conjecture on small instances.

Batch semantics are atomic: either every component transfer of
``safeBatchTransferFrom`` applies or none does (EIP-1155 reverts on any
failing component; a revert maps to a state-preserving ``FALSE``).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro._records import record
from repro.errors import InvalidArgumentError
from repro.objects.base import OperatorApprovals, SharedObject
from repro.runtime.calls import OpCall
from repro.spec.object_type import FALSE, TRUE
from repro.spec.operation import Operation


@record(frozen=True, slots=True)
class MultiTokenState:
    """``balances[account][token_type]`` plus per-holder operator sets."""

    balances: tuple[tuple[int, ...], ...]
    operators: tuple[frozenset[int], ...]

    def balance(self, account: int, token_type: int) -> int:
        return self.balances[account][token_type]

    def is_authorized(self, pid: int, holder: int) -> bool:
        return pid == holder or pid in self.operators[holder]

    def with_transfers(
        self, source: int, dest: int, moves: Sequence[tuple[int, int]]
    ) -> "MultiTokenState":
        """Apply ``(token_type, value)`` moves from ``source`` to ``dest``."""
        debited = list(self.balances[source])
        credited = debited if dest == source else list(self.balances[dest])
        for token_type, value in moves:
            debited[token_type] -= value
            credited[token_type] += value
        balances = list(self.balances)
        balances[source] = tuple(debited)
        balances[dest] = tuple(credited)
        return MultiTokenState(tuple(balances), self.operators)


class ERC1155TokenType(OperatorApprovals):
    """Sequential specification of an ERC1155 contract."""

    name = "erc1155"

    def __init__(self, initial_balances: Sequence[Sequence[int]]) -> None:
        """``initial_balances[account][token_type]``; a rectangular grid."""
        grid = tuple(tuple(int(v) for v in row) for row in initial_balances)
        if not grid:
            raise InvalidArgumentError("need at least one account")
        widths = {len(row) for row in grid}
        if len(widths) != 1:
            raise InvalidArgumentError("balance grid must be rectangular")
        if any(v < 0 for row in grid for v in row):
            raise InvalidArgumentError("balances must be non-negative")
        self.num_accounts = len(grid)
        self.num_token_types = len(grid[0])
        self._initial = MultiTokenState(
            grid, tuple(frozenset() for _ in range(self.num_accounts))
        )

    def initial_state(self) -> MultiTokenState:
        return self._initial

    def operation_names(self) -> tuple[str, ...]:
        return (
            "balanceOf",
            "balanceOfBatch",
            "safeTransferFrom",
            "safeBatchTransferFrom",
            "setApprovalForAll",
            "isApprovedForAll",
        )

    def _check_token_type(self, token_type: Any) -> None:
        if (
            not isinstance(token_type, int)
            or not 0 <= token_type < self.num_token_types
        ):
            raise InvalidArgumentError(f"unknown token type {token_type!r}")

    def _apply_balanceOf(
        self, state: MultiTokenState, pid: int, account: int, token_type: int
    ) -> tuple[MultiTokenState, Any]:
        self._check_account(account)
        self._check_token_type(token_type)
        return state, state.balance(account, token_type)

    def _apply_balanceOfBatch(
        self,
        state: MultiTokenState,
        pid: int,
        accounts: tuple[int, ...],
        token_types: tuple[int, ...],
    ) -> tuple[MultiTokenState, Any]:
        if len(accounts) != len(token_types):
            raise InvalidArgumentError("batch reads need matching lengths")
        results = []
        for account, token_type in zip(accounts, token_types):
            self._check_account(account)
            self._check_token_type(token_type)
            results.append(state.balance(account, token_type))
        return state, tuple(results)

    def _apply_safeTransferFrom(
        self,
        state: MultiTokenState,
        pid: int,
        source: int,
        dest: int,
        token_type: int,
        value: int,
    ) -> tuple[MultiTokenState, Any]:
        self._check_account(source)
        self._check_account(dest)
        self._check_token_type(token_type)
        self._check_value(value)
        if not state.is_authorized(pid, source):
            return state, FALSE
        if state.balance(source, token_type) < value:
            return state, FALSE
        return state.with_transfers(source, dest, [(token_type, value)]), TRUE

    def _apply_safeBatchTransferFrom(
        self,
        state: MultiTokenState,
        pid: int,
        source: int,
        dest: int,
        token_types: tuple[int, ...],
        values: tuple[int, ...],
    ) -> tuple[MultiTokenState, Any]:
        if len(token_types) != len(values):
            raise InvalidArgumentError("batch transfers need matching lengths")
        self._check_account(source)
        self._check_account(dest)
        if not state.is_authorized(pid, source):
            return state, FALSE
        needed: dict[int, int] = {}
        for token_type, value in zip(token_types, values):
            self._check_token_type(token_type)
            self._check_value(value)
            needed[token_type] = needed.get(token_type, 0) + value
        for token_type, total in needed.items():
            if state.balance(source, token_type) < total:
                return state, FALSE  # atomic: all-or-nothing
        moves = list(zip(token_types, values))
        return state.with_transfers(source, dest, moves), TRUE


class ERC1155Token(SharedObject):
    """Runtime ERC1155 object with ergonomic call builders."""

    def __init__(
        self,
        initial_balances: Sequence[Sequence[int]],
        name: str | None = None,
    ) -> None:
        super().__init__(ERC1155TokenType(initial_balances), name=name)

    def balance_of(self, account: int, token_type: int) -> OpCall:
        return self.call(Operation("balanceOf", (account, token_type)))

    def balance_of_batch(
        self, accounts: Sequence[int], token_types: Sequence[int]
    ) -> OpCall:
        return self.call(
            Operation("balanceOfBatch", (tuple(accounts), tuple(token_types)))
        )

    def safe_transfer_from(
        self, source: int, dest: int, token_type: int, value: int
    ) -> OpCall:
        return self.call(
            Operation("safeTransferFrom", (source, dest, token_type, value))
        )

    def safe_batch_transfer_from(
        self,
        source: int,
        dest: int,
        token_types: Sequence[int],
        values: Sequence[int],
    ) -> OpCall:
        return self.call(
            Operation(
                "safeBatchTransferFrom",
                (source, dest, tuple(token_types), tuple(values)),
            )
        )

    def set_approval_for_all(self, operator: int, enabled: bool) -> OpCall:
        return self.call(Operation("setApprovalForAll", (operator, enabled)))

    def is_approved_for_all(self, holder: int, operator: int) -> OpCall:
        return self.call(Operation("isApprovedForAll", (holder, operator)))
