"""Escrowed allowances: a token variant that *loses* synchronization power.

A by-product of the reproduction (README.md, Reproduction note 5):
Algorithm 2's emulated ``transferFrom`` is non-atomic because the
allowance check (a register) and the balance move (the k-AT) are separate
base objects.  The natural repair is to make each allowance a *funded
escrow*: represent account ``a`` as a **free** sub-account owned by
``ω(a)`` plus one **escrow** sub-account per spender ``p``, owned by
``{ω(a), p}`` (a 2-shared account).

* ``increaseAllowance(p, δ)``  = ``AT.transfer(free_a, escrow_{a,p}, δ)``
* ``decreaseAllowance(p, δ)``  = ``AT.transfer(escrow_{a,p}, free_a, δ)``
* ``transferFrom(a, d, v)``    = ``AT.transfer(escrow_{a,p}, free_d, v)``
* ``allowance(a, p)``          = ``AT.balanceOf(escrow_{a,p})``
* ``transfer(d, v)``           = ``AT.transfer(free_a, free_d, v)``

Every operation is now a **single atomic step** on a 2-shared asset-transfer
object — no seam, no approve race, no allowance leak.

The theoretical punchline: this "fixed" token is *strictly weaker* than
ERC20.  Approving a spender no longer creates contention on a shared balance
— the escrow pre-partitions the funds — so the object cannot host the
k-way race Algorithm 1 needs.  Its synchronization power is that of 2-AT
(owner/spender pairs), **regardless of how many spenders an account has**:
the consensus number of the escrow token is 2, not "k, dynamically".  The
synchronization power of ERC20 comes precisely from the contention that
escrowing removes.  Tests demonstrate both directions:

* every escrow-token operation is one base step (atomicity restored);
* the Algorithm 1 race on an escrow token *fails to have a unique winner* —
  all spenders' transfers succeed independently.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import InvalidArgumentError
from repro.objects.asset_transfer import AssetTransfer
from repro.objects.erc20 import TokenState
from repro.runtime.calls import OpCall

EscrowOp = Generator[OpCall, Any, Any]


class EscrowToken:
    """A token with escrowed (pre-funded) allowances over one 2-AT object.

    Account layout inside the underlying asset-transfer object, for ``n``
    logical accounts: sub-account ``a`` (``0 ≤ a < n``) is the free balance
    of account ``a``; sub-account ``n + a·n + p`` is the escrow of account
    ``a`` toward spender ``p``, owned by ``{a, p}``.
    """

    def __init__(
        self, initial_state: TokenState, name: str = "escrow-token"
    ) -> None:
        self.name = name
        self.num_accounts = n = initial_state.num_accounts
        balances: list[int] = list(initial_state.balances)
        owner_map: list[set[int]] = [{a} for a in range(n)]
        for account in range(n):
            for spender in range(n):
                balances.append(initial_state.allowance(account, spender))
                owner_map.append({account, spender})
        total_free = sum(initial_state.balances)
        total_escrow = sum(balances[n:])
        if total_escrow > 0 and total_free + total_escrow != sum(balances):
            raise InvalidArgumentError("inconsistent escrow initialization")
        self.kat = AssetTransfer(
            initial_balances=balances,
            owner_map=owner_map,
            num_processes=n,
            name=f"{name}.at",
        )

    # -- sub-account addressing -------------------------------------------

    def free(self, account: int) -> int:
        self._check(account)
        return account

    def escrow(self, account: int, spender: int) -> int:
        self._check(account)
        self._check(spender)
        return self.num_accounts + account * self.num_accounts + spender

    def _check(self, account: int) -> None:
        if not 0 <= account < self.num_accounts:
            raise InvalidArgumentError(f"unknown account {account!r}")

    @property
    def base_objects(self) -> list[Any]:
        return [self.kat]

    # -- operations: each one atomic base step ------------------------------

    def transfer(self, pid: int, dest: int, value: int) -> EscrowOp:
        result = yield self.kat.transfer(self.free(pid), self.free(dest), value)
        return result

    def transfer_from(
        self, pid: int, source: int, dest: int, value: int
    ) -> EscrowOp:
        result = yield self.kat.transfer(
            self.escrow(source, pid), self.free(dest), value
        )
        return result

    def increase_allowance(
        self, pid: int, spender: int, delta: int
    ) -> EscrowOp:
        result = yield self.kat.transfer(
            self.free(pid), self.escrow(pid, spender), delta
        )
        return result

    def decrease_allowance(
        self, pid: int, spender: int, delta: int
    ) -> EscrowOp:
        result = yield self.kat.transfer(
            self.escrow(pid, spender), self.free(pid), delta
        )
        return result

    def allowance(self, pid: int, account: int, spender: int) -> EscrowOp:
        result = yield self.kat.balance_of(self.escrow(account, spender))
        return result

    def free_balance_of(self, pid: int, account: int) -> EscrowOp:
        """The owner's immediately-spendable balance."""
        result = yield self.kat.balance_of(self.free(account))
        return result

    def balance_of(self, pid: int, account: int) -> EscrowOp:
        """ERC20-style total balance: free + all outstanding escrows.

        NOTE: this is a non-atomic sum of reads — the one operation the
        escrow design cannot make atomic (the reverse trade-off from
        Algorithm 2, whose reads were atomic but whose transferFrom was not).
        """
        total = yield self.kat.balance_of(self.free(account))
        for spender in range(self.num_accounts):
            total += yield self.kat.balance_of(self.escrow(account, spender))
        return total

    def total_supply(self, pid: int) -> EscrowOp:
        result = yield self.kat.total_supply()
        return result
