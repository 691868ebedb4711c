"""The ERC721 non-fungible token object (paper §6; EIP-721).

Every token is unique, identified by ``tokenId``, and transferred
individually with ``transferFrom``.  An owner can ``approve`` one address per
token, and can enable *operators* with full control over all of its tokens
(``setApprovalForAll``) — both mechanisms appear in EIP-721 and both create
multi-spender races analogous to ERC20 allowances, which is what §6 exploits:
"Algorithm 1 can be adapted so that it uses a specific token ... which all
the participating processes are approved to spend; the winner of this race
can then be determined by invoking ``ownerOf``."

Failure semantics: the EVM contract *reverts* on unauthorized transfers; in
the shared-object formalism a revert is a state-preserving transition, so the
object returns ``FALSE`` (consistent with how the paper's Definition 3 folds
ERC20's require-failures into ``FALSE`` responses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import InvalidArgumentError
from repro.objects.base import AccountType, SharedObject
from repro.objects.footprint import EMPTY_FOOTPRINT, OpFootprint, footprint
from repro.runtime.calls import OpCall
from repro.spec.object_type import FALSE, TRUE
from repro.spec.operation import Operation

#: ERC721's zero address: "no approval" marker.
NO_APPROVAL = -1


@dataclass(frozen=True, slots=True)
class NFTState:
    """Immutable ERC721 state.

    ``owners[t]`` — owning account of token ``t``;
    ``approved[t]`` — account approved for token ``t`` (or ``NO_APPROVAL``);
    ``operators[a]`` — frozenset of operator accounts enabled by ``a``.
    """

    owners: tuple[int, ...]
    approved: tuple[int, ...]
    operators: tuple[frozenset[int], ...]

    def owner_of(self, token_id: int) -> int:
        return self.owners[token_id]

    def is_authorized(self, pid: int, token_id: int) -> bool:
        """Owner, per-token approved, or operator of the owner (EIP-721)."""
        owner = self.owners[token_id]
        return (
            pid == owner
            or self.approved[token_id] == pid
            or pid in self.operators[owner]
        )

    def with_transfer(self, token_id: int, dest: int) -> "NFTState":
        owners = list(self.owners)
        owners[token_id] = dest
        approved = list(self.approved)
        approved[token_id] = NO_APPROVAL  # approvals are cleared on transfer
        return NFTState(tuple(owners), tuple(approved), self.operators)

    def with_operator(
        self, holder: int, operator: int, enabled: bool
    ) -> "NFTState":
        operators = list(self.operators)
        current = set(operators[holder])
        if enabled:
            current.add(operator)
        else:
            current.discard(operator)
        operators[holder] = frozenset(current)
        return NFTState(self.owners, self.approved, tuple(operators))


class ERC721TokenType(AccountType):
    """Sequential specification of an ERC721 contract."""

    name = "erc721"

    def __init__(
        self, num_accounts: int, initial_owners: Sequence[int]
    ) -> None:
        """``initial_owners[t]`` assigns token ``t`` to an account (minting)."""
        if num_accounts <= 0:
            raise InvalidArgumentError("need at least one account")
        self.num_accounts = num_accounts
        owners = tuple(int(o) for o in initial_owners)
        for token_id, owner in enumerate(owners):
            if not 0 <= owner < num_accounts:
                raise InvalidArgumentError(
                    f"token {token_id} minted to unknown account {owner}"
                )
        self.num_tokens = len(owners)
        self._initial = NFTState(
            owners,
            tuple(NO_APPROVAL for _ in owners),
            tuple(frozenset() for _ in range(num_accounts)),
        )

    def initial_state(self) -> NFTState:
        return self._initial

    def operation_names(self) -> tuple[str, ...]:
        return (
            "ownerOf",
            "balanceOf",
            "transferFrom",
            "approve",
            "getApproved",
            "setApprovalForAll",
            "isApprovedForAll",
        )

    # -- validation -----------------------------------------------------

    def _check_token(self, token_id: Any) -> None:
        if not isinstance(token_id, int) or not 0 <= token_id < self.num_tokens:
            raise InvalidArgumentError(f"unknown token {token_id!r}")

    # -- Δ ----------------------------------------------------------------

    def apply(
        self, state: NFTState, pid: int, operation: Operation
    ) -> tuple[NFTState, Any]:
        handler = self._handler(operation)
        self._check_account(pid)
        return handler(state, pid, *operation.args)

    def _apply_ownerOf(
        self, state: NFTState, pid: int, token_id: int
    ) -> tuple[NFTState, Any]:
        self._check_token(token_id)
        return state, state.owner_of(token_id)

    def _apply_balanceOf(
        self, state: NFTState, pid: int, account: int
    ) -> tuple[NFTState, Any]:
        self._check_account(account)
        return state, state.owners.count(account)

    def _apply_transferFrom(
        self, state: NFTState, pid: int, source: int, dest: int, token_id: int
    ) -> tuple[NFTState, Any]:
        self._check_account(source)
        self._check_account(dest)
        self._check_token(token_id)
        if state.owner_of(token_id) != source or not state.is_authorized(
            pid, token_id
        ):
            return state, FALSE
        return state.with_transfer(token_id, dest), TRUE

    def _apply_approve(
        self, state: NFTState, pid: int, approved: int, token_id: int
    ) -> tuple[NFTState, Any]:
        if approved != NO_APPROVAL:
            self._check_account(approved)
        self._check_token(token_id)
        owner = state.owner_of(token_id)
        if pid != owner and pid not in state.operators[owner]:
            return state, FALSE
        approvals = list(state.approved)
        approvals[token_id] = approved
        return NFTState(state.owners, tuple(approvals), state.operators), TRUE

    def _apply_getApproved(
        self, state: NFTState, pid: int, token_id: int
    ) -> tuple[NFTState, Any]:
        self._check_token(token_id)
        return state, state.approved[token_id]

    def _apply_setApprovalForAll(
        self, state: NFTState, pid: int, operator: int, enabled: bool
    ) -> tuple[NFTState, Any]:
        self._check_account(operator)
        if operator == pid:
            return state, FALSE  # EIP-721: self-approval is rejected
        return state.with_operator(pid, operator, bool(enabled)), TRUE

    def _apply_isApprovedForAll(
        self, state: NFTState, pid: int, holder: int, operator: int
    ) -> tuple[NFTState, Any]:
        self._check_account(holder)
        self._check_account(operator)
        return state, operator in state.operators[holder]

    # -- static footprints (engine fast path) -----------------------------

    def _nft(self, token_id: int):
        return ("nft", token_id)

    def _ops_cells(self):
        """Authorization may consult *any* account's operator set (the owner
        is state-dependent), so authorized methods observe all of them."""
        return [("ops", a) for a in range(self.num_accounts)]

    def footprint(self, pid: int, operation: Operation) -> OpFootprint:
        """Static footprint over per-token cells ``("nft", t)`` (owner +
        per-token approval, cleared together on transfer) and per-account
        operator cells ``("ops", a)``.

        Transfers of *different* tokens commute — the §6 race is always
        about one specific token — while any two authorized mutations of
        the same token conflict, which is exactly the ``ownerOf`` race
        Algorithm 1 (adapted) decides by consensus.
        """
        self.validate_name(operation)
        self._check_account(pid)
        name, args = operation.name, operation.args
        if name == "ownerOf" or name == "getApproved":
            return footprint(observes=[self._nft(args[0])])
        if name == "balanceOf":
            return footprint(
                observes=[self._nft(t) for t in range(self.num_tokens)]
            )
        if name == "transferFrom":
            _source, _dest, token_id = args
            cell = self._nft(token_id)
            return footprint(
                observes=[cell, *self._ops_cells()], sets=[cell]
            )
        if name == "approve":
            token_id = args[1]
            cell = self._nft(token_id)
            return footprint(
                observes=[cell, *self._ops_cells()], sets=[cell]
            )
        if name == "setApprovalForAll":
            operator = args[0]
            if operator == pid:
                return EMPTY_FOOTPRINT  # EIP-721 self-approval: constant FALSE
            return footprint(sets=[("ops", pid)])
        # isApprovedForAll
        return footprint(observes=[("ops", args[0])])


class ERC721Token(SharedObject):
    """Runtime ERC721 object with ergonomic call builders."""

    def __init__(
        self,
        num_accounts: int,
        initial_owners: Sequence[int],
        name: str | None = None,
    ) -> None:
        super().__init__(
            ERC721TokenType(num_accounts, initial_owners), name=name
        )

    def owner_of(self, token_id: int) -> OpCall:
        return self.call(Operation("ownerOf", (token_id,)))

    def balance_of(self, account: int) -> OpCall:
        return self.call(Operation("balanceOf", (account,)))

    def transfer_from(self, source: int, dest: int, token_id: int) -> OpCall:
        return self.call(Operation("transferFrom", (source, dest, token_id)))

    def approve(self, approved: int, token_id: int) -> OpCall:
        return self.call(Operation("approve", (approved, token_id)))

    def get_approved(self, token_id: int) -> OpCall:
        return self.call(Operation("getApproved", (token_id,)))

    def set_approval_for_all(self, operator: int, enabled: bool) -> OpCall:
        return self.call(Operation("setApprovalForAll", (operator, enabled)))

    def is_approved_for_all(self, holder: int, operator: int) -> OpCall:
        return self.call(Operation("isApprovedForAll", (holder, operator)))
