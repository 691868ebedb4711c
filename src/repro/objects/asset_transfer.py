"""The asset-transfer object (paper Definition 1; Guerraoui et al. [16]).

``AT = (Q, q0, O, R, Δ)`` over a finite account set ``A`` with owner map
``µ : A → 2^Π``.  State is the balance map ``β : A → N``.  Operations:

* ``transfer(a_s, a_d, v)`` — succeeds iff the caller is an owner of ``a_s``
  and ``β(a_s) ≥ v``; moves ``v`` tokens.
* ``balanceOf(a)`` — reads a balance.

If the maximum number of processes sharing an account is ``k``, the object is
a *k-shared asset transfer* (``k``-AT); its consensus number is ``k`` [16].

Accounts and processes are 0-indexed integers; the owner map is a tuple of
frozensets, fixed at type-construction time (the paper stresses that ``µ`` is
*static* — contrast with the dynamic spender sets of ERC20 tokens).  The
dynamic-owner extension needed to express Algorithm 2's sequence of fresh
``k``-AT instances lives in :class:`DynamicOwnerATType`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import InvalidArgumentError
from repro.objects.base import AccountType, SharedObject
from repro.objects.footprint import (
    EMPTY_FOOTPRINT,
    SUPPLY,
    OpFootprint,
    bal,
    footprint,
)
from repro.runtime.calls import OpCall
from repro.spec.object_type import FALSE, TRUE, SequentialObjectType
from repro.spec.operation import Operation


@dataclass(frozen=True, slots=True)
class ATState:
    """Balance map ``β`` as an immutable tuple indexed by account."""

    balances: tuple[int, ...]

    def balance(self, account: int) -> int:
        return self.balances[account]

    def with_transfer(self, source: int, dest: int, value: int) -> "ATState":
        updated = list(self.balances)
        updated[source] -= value
        updated[dest] += value
        return ATState(tuple(updated))

    @property
    def total_supply(self) -> int:
        return sum(self.balances)


def _normalize_owner_map(
    owner_map: Sequence[Iterable[int]], num_accounts: int, num_processes: int
) -> tuple[frozenset[int], ...]:
    if len(owner_map) != num_accounts:
        raise InvalidArgumentError(
            f"owner map must cover all {num_accounts} accounts"
        )
    normalized: list[frozenset[int]] = []
    for account, owners in enumerate(owner_map):
        owner_set = frozenset(owners)
        if not owner_set:
            raise InvalidArgumentError(f"account {account} has no owners")
        for pid in owner_set:
            if not 0 <= pid < num_processes:
                raise InvalidArgumentError(
                    f"owner {pid} of account {account} is not a process id"
                )
        normalized.append(owner_set)
    return tuple(normalized)


class AssetTransferType(AccountType):
    """Sequential specification of Definition 1 with a static owner map."""

    name = "asset-transfer"

    def __init__(
        self,
        initial_balances: Sequence[int],
        owner_map: Sequence[Iterable[int]] | None = None,
        num_processes: int | None = None,
    ) -> None:
        """Create the type for ``|A| = len(initial_balances)`` accounts.

        Args:
            initial_balances: ``β0``; all balances must be non-negative.
            owner_map: ``µ``; defaults to single ownership ``µ(a_i) = {p_i}``.
            num_processes: ``|Π|``; defaults to the number of accounts.
        """
        balances = tuple(int(b) for b in initial_balances)
        if any(b < 0 for b in balances):
            raise InvalidArgumentError("initial balances must be non-negative")
        self.num_accounts = len(balances)
        self.num_processes = (
            self.num_accounts if num_processes is None else num_processes
        )
        if owner_map is None:
            if self.num_processes < self.num_accounts:
                raise InvalidArgumentError(
                    "default single-owner map needs one process per account"
                )
            owner_map = [{a} for a in range(self.num_accounts)]
        self.owner_map = _normalize_owner_map(
            owner_map, self.num_accounts, self.num_processes
        )
        self._initial = ATState(balances)

    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """The sharing level: max number of owners of any account (k-AT)."""
        return max(len(owners) for owners in self.owner_map)

    def owners(self, account: int) -> frozenset[int]:
        """``µ(a)``."""
        self._check_account(account)
        return self.owner_map[account]

    def initial_state(self) -> ATState:
        return self._initial

    def operation_names(self) -> tuple[str, ...]:
        return ("transfer", "balanceOf", "totalSupply")

    def _check_value(self, value: Any) -> None:
        if not isinstance(value, int) or value < 0:
            raise InvalidArgumentError(f"amount must be a natural number: {value!r}")

    def apply(
        self, state: ATState, pid: int, operation: Operation
    ) -> tuple[ATState, Any]:
        return self._handler(operation)(state, pid, *operation.args)

    # Δ branches -------------------------------------------------------

    def _apply_transfer(
        self, state: ATState, pid: int, source: int, dest: int, value: int
    ) -> tuple[ATState, Any]:
        self._check_account(source)
        self._check_account(dest)
        self._check_value(value)
        if pid not in self.owner_map[source] or state.balance(source) < value:
            return state, FALSE
        return state.with_transfer(source, dest, value), TRUE

    def _apply_balanceOf(
        self, state: ATState, pid: int, account: int
    ) -> tuple[ATState, Any]:
        self._check_account(account)
        return state, state.balance(account)

    def _apply_totalSupply(
        self, state: ATState, pid: int
    ) -> tuple[ATState, Any]:
        return state, state.total_supply

    # -- static footprints (engine fast path) -----------------------------

    def footprint(self, pid: int, operation: Operation) -> OpFootprint:
        """Static footprint; the owner map µ is static, so an unauthorized
        transfer is a constant-``FALSE`` no-op with an empty footprint."""
        self.validate_name(operation)
        name, args = operation.name, operation.args
        if name == "transfer":
            source, dest, value = args
            self._check_account(source)
            if pid not in self.owner_map[source] or value == 0:
                # Always fails (non-owner) or always a successful no-op:
                # constant response, state never changes.
                return EMPTY_FOOTPRINT
            if dest == source:
                return footprint(observes=[bal(source)])
            return footprint(
                observes=[bal(source)], adds=[bal(source), bal(dest)]
            )
        if name == "balanceOf":
            return footprint(observes=[bal(args[0])])
        # totalSupply — conserved by every transfer.
        return footprint(observes=[SUPPLY])


class DynamicOwnerATType(AssetTransferType):
    """Asset transfer whose owner map is part of the *state*.

    Algorithm 2 keeps the owner map of its ``k``-AT in sync with the evolving
    allowances by (conceptually) creating a fresh ``k``-AT instance whenever
    the enabled-spender set of an account changes — "whenever the set of
    enabled spenders for a given account changes ... we create a new instance
    of the k-AT object, with the same balances as the previous instance and an
    owner map reflecting the updated allowances" (proof of Theorem 4).  A
    sequence of instances with copied balances is observationally equivalent
    to one object with an atomic owner-map-update meta-operation, which is
    what this class provides (``setOwners``).  The meta-operation enforces the
    ``k`` bound, so the object never exceeds the synchronization power of
    ``k``-AT.
    """

    name = "dynamic-asset-transfer"

    def __init__(
        self,
        initial_balances: Sequence[int],
        owner_map: Sequence[Iterable[int]] | None = None,
        num_processes: int | None = None,
        max_owners: int | None = None,
    ) -> None:
        super().__init__(initial_balances, owner_map, num_processes)
        #: The k bound enforced on every owner set (defaults to the initial k).
        self.max_owners = self.k if max_owners is None else max_owners
        if self.k > self.max_owners:
            raise InvalidArgumentError(
                f"initial owner map exceeds the k={self.max_owners} bound"
            )
        self._initial_dynamic = (self._initial, self.owner_map)

    # State is (ATState, owner_map) so that owner updates are atomic steps.

    def initial_state(self) -> tuple[ATState, tuple[frozenset[int], ...]]:
        return self._initial_dynamic

    def operation_names(self) -> tuple[str, ...]:
        return ("transfer", "balanceOf", "totalSupply", "setOwners")

    def apply(
        self,
        state: tuple[ATState, tuple[frozenset[int], ...]],
        pid: int,
        operation: Operation,
    ) -> tuple[tuple[ATState, tuple[frozenset[int], ...]], Any]:
        self.validate_name(operation)
        balances, owners = state
        if operation.name == "setOwners":
            account, new_owners = operation.args
            self._check_account(account)
            owner_set = frozenset(new_owners)
            if not owner_set:
                raise InvalidArgumentError("owner set may not be empty")
            if len(owner_set) > self.max_owners:
                return state, FALSE
            updated = list(owners)
            updated[account] = owner_set
            return (balances, tuple(updated)), TRUE
        if operation.name == "transfer":
            source, dest, value = operation.args
            self._check_account(source)
            self._check_account(dest)
            self._check_value(value)
            if pid not in owners[source] or balances.balance(source) < value:
                return state, FALSE
            return (balances.with_transfer(source, dest, value), owners), TRUE
        if operation.name == "balanceOf":
            (account,) = operation.args
            self._check_account(account)
            return state, balances.balance(account)
        # totalSupply
        return state, balances.total_supply

    #: µ is state here, so the parent's static-µ footprint would be
    #: unsound: the engine classifies these operations conservatively.
    footprint = SequentialObjectType.footprint


class AssetTransfer(SharedObject):
    """Runtime (static-µ) asset-transfer object."""

    def __init__(
        self,
        initial_balances: Sequence[int],
        owner_map: Sequence[Iterable[int]] | None = None,
        num_processes: int | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(
            AssetTransferType(initial_balances, owner_map, num_processes),
            name=name,
        )

    def transfer(self, source: int, dest: int, value: int) -> OpCall:
        return self.call(Operation("transfer", (source, dest, value)))

    def balance_of(self, account: int) -> OpCall:
        return self.call(Operation("balanceOf", (account,)))

    def total_supply(self) -> OpCall:
        return self.call(Operation("totalSupply"))


class DynamicOwnerAT(SharedObject):
    """Runtime dynamic-owner asset transfer used by Algorithm 2."""

    def __init__(
        self,
        initial_balances: Sequence[int],
        owner_map: Sequence[Iterable[int]] | None = None,
        num_processes: int | None = None,
        max_owners: int | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(
            DynamicOwnerATType(
                initial_balances, owner_map, num_processes, max_owners
            ),
            name=name,
        )

    def transfer(self, source: int, dest: int, value: int) -> OpCall:
        return self.call(Operation("transfer", (source, dest, value)))

    def balance_of(self, account: int) -> OpCall:
        return self.call(Operation("balanceOf", (account,)))

    def total_supply(self) -> OpCall:
        return self.call(Operation("totalSupply"))

    def set_owners(self, account: int, owners: Iterable[int]) -> OpCall:
        return self.call(Operation("setOwners", (account, frozenset(owners))))
