"""The ERC20 token object (paper Definition 3 and Appendix A, Algorithm 3).

State (Eq. 2): ``Q = {β : A → N} × {α : A × Π → N}`` — balances and
allowances.  One account per process (``|Π| = |A| = n``) with the identity
owner bijection ``ω(a_i) = p_i`` (paper §4); in code both accounts and
processes are 0-indexed integers and ``ω`` is the identity.

Operations (Eqs. 3–7):

* ``transfer(a_d, v)`` — caller ``p`` moves ``v`` tokens from its own account
  ``a_p`` to ``a_d``; fails (returns ``FALSE``) when ``β(a_p) < v``.
* ``transferFrom(a_s, a_d, v)`` — caller ``p`` moves ``v`` tokens from ``a_s``
  using its allowance; requires ``β(a_s) ≥ v`` and ``α(a_s, p) ≥ v``, and
  decrements both.
* ``approve(p̄, v)`` — caller sets ``α(a_p, p̄) = v`` (absolute assignment; the
  well-known ERC20 approve semantics).
* ``balanceOf(a)``, ``allowance(a, p̄)``, ``totalSupply()`` — read-only.

The sequential specification below is a line-by-line transcription of the Δ
relation in Definition 3 (which coincides with Algorithm 3's contract code on
their common methods).  Optional ``increaseAllowance``/``decreaseAllowance``
extension methods — present in real-world ERC20 implementations and needed by
the corrected Algorithm 2 variant — can be enabled explicitly.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, Sequence

from repro._records import record
from repro.errors import InvalidArgumentError
from repro.objects.base import AccountType, SharedObject
from repro.objects.footprint import (
    EMPTY_FOOTPRINT,
    SUPPLY,
    OpFootprint,
    allow,
    bal,
)
from repro.runtime.calls import OpCall
from repro.spec.object_type import FALSE, TRUE
from repro.spec.operation import Operation

#: ``totalSupply``'s footprint: transfers conserve :data:`SUPPLY`.
_SUPPLY_READ = OpFootprint(frozenset((SUPPLY,)))


#: The map of an account with no positive allowance: shared, never written.
_NO_ROW: dict[int, int] = {}


class Allowances:
    """α stored sparse: ``{account: {spender: amount}}`` holding only the
    positive allowances (absent means 0) and no empty map, so equal α hold
    equal maps, and ``==``, ``hash`` and the sorted ``repr`` read the value,
    never the order of the writes.  Immutable: no map is written once held;
    ``TokenState.allowances_of`` hands out read-only views."""

    __slots__ = ("_rows", "_hash")

    def __init__(self, rows: dict[int, dict[int, int]]) -> None:
        self._rows, self._hash = rows, None

    def cells(self) -> list[tuple[tuple[int, int], int]]:
        """``((account, spender), amount)`` per positive allowance, sorted."""
        rows = self._rows
        return sorted(((a, p), v) for a in rows for p, v in rows[a].items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Allowances) and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.cells()))
        return self._hash

    def __repr__(self) -> str:
        return f"Allowances({dict(self.cells())!r})"


def assign_allowance(row: dict[int, int], spender: int, value: int) -> None:
    """``row[spender] = value`` in an account's allowance map the caller
    owns: 0 is absence, so the map holds only positive allowances."""
    if value:
        row[spender] = value
    else:
        row.pop(spender, None)


@record(frozen=True, slots=True)
class TokenState:
    """Immutable token state ``q = (β, α)``.

    ``balances[a]`` is ``β(a)``; ``allowance(a, p)`` is ``α(a, p)``, the
    amount process ``p`` may transfer from account ``a``.  α is stored
    sparse (:class:`Allowances`): a state is O(accounts + allowances).

    The state is *persistent*: an allowance update copies the written
    account's map and α's outer map, and shares every other map and β
    with its predecessor; never rely on map identity.
    """

    balances: tuple[int, ...]
    allowances: Allowances

    # -- reads ----------------------------------------------------------

    @property
    def num_accounts(self) -> int:
        return len(self.balances)

    def balance(self, account: int) -> int:
        return self.balances[account]

    def allowance(self, account: int, spender: int) -> int:
        return self.allowances._rows.get(account, _NO_ROW).get(spender, 0)

    def allowances_of(self, account: int) -> Mapping[int, int]:
        """``α(account, ·)``'s positive entries, ``{spender: amount}``."""
        return MappingProxyType(self.allowances._rows.get(account, _NO_ROW))

    @property
    def total_supply(self) -> int:
        return sum(self.balances)

    # -- functional updates ---------------------------------------------

    def with_transfer(self, source: int, dest: int, value: int) -> "TokenState":
        balances = list(self.balances)
        balances[source] -= value
        balances[dest] += value
        return TokenState(tuple(balances), self.allowances)

    def with_allowance(self, account: int, spender: int, value: int) -> "TokenState":
        row = dict(self.allowances._rows.get(account, _NO_ROW))
        assign_allowance(row, spender, value)
        rows = {**self.allowances._rows, account: row}
        if not row:
            del rows[account]
        return TokenState(self.balances, Allowances(rows))

    def with_transfer_from(
        self, spender: int, source: int, dest: int, value: int
    ) -> "TokenState":
        return self.with_transfer(source, dest, value).with_allowance(
            source, spender, self.allowance(source, spender) - value
        )

    # -- constructors ----------------------------------------------------

    @staticmethod
    def create(
        balances: Sequence[int],
        allowances: Mapping[tuple[int, int], int] | None = None,
    ) -> "TokenState":
        """Build a state from a balance list and a sparse allowance mapping
        ``{(account, spender): amount}`` (a 0 amount is the same as none)."""
        n = len(balances)
        balance_tuple = tuple(int(b) for b in balances)
        if any(b < 0 for b in balance_tuple):
            raise InvalidArgumentError("balances must be non-negative")
        rows: dict[int, dict[int, int]] = {}
        for (account, spender), amount in (allowances or {}).items():
            if not 0 <= account < n or not 0 <= spender < n:
                raise InvalidArgumentError(
                    f"allowance index out of range: ({account}, {spender})"
                )
            if int(amount) < 0:
                raise InvalidArgumentError("allowances must be non-negative")
            if amount:
                rows.setdefault(account, {})[spender] = int(amount)
        return TokenState(balance_tuple, Allowances(rows))

    @staticmethod
    def deploy(num_accounts: int, total_supply: int, deployer: int = 0) -> "TokenState":
        """The ERC20 standard's initial state ``q0`` (Algorithm 3, line 7):
        the deployer holds the whole supply, all allowances are 0."""
        if not 0 <= deployer < num_accounts:
            raise InvalidArgumentError("deployer must be a valid account")
        if total_supply < 0:
            raise InvalidArgumentError("total supply must be non-negative")
        balances = [0] * num_accounts
        balances[deployer] = total_supply
        return TokenState.create(balances)


class ERC20TokenType(AccountType):
    """Sequential specification of the ERC20 token object (Definition 3)."""

    name = "erc20"

    #: Methods of Definition 3 / Algorithm 3.
    CORE_OPERATIONS = (
        "transfer",
        "transferFrom",
        "approve",
        "balanceOf",
        "allowance",
        "totalSupply",
    )
    #: Real-world extension methods (OpenZeppelin-style), opt-in.
    EXTENSION_OPERATIONS = ("increaseAllowance", "decreaseAllowance")

    def __init__(
        self,
        num_accounts: int,
        initial_state: TokenState | None = None,
        total_supply: int | None = None,
        deployer: int = 0,
        with_extensions: bool = False,
    ) -> None:
        """Create the token type for ``n = num_accounts`` accounts/processes.

        Exactly one of ``initial_state`` / ``total_supply`` may be provided;
        with neither, the initial state has all balances zero.
        """
        if num_accounts <= 0:
            raise InvalidArgumentError("need at least one account")
        self.num_accounts = num_accounts
        self.with_extensions = with_extensions
        if initial_state is not None and total_supply is not None:
            raise InvalidArgumentError(
                "provide either initial_state or total_supply, not both"
            )
        if initial_state is not None:
            if initial_state.num_accounts != num_accounts:
                raise InvalidArgumentError("initial state has wrong account count")
            self._initial = initial_state
        elif total_supply is not None:
            self._initial = TokenState.deploy(
                num_accounts, total_supply, deployer
            )
        else:
            self._initial = TokenState.create([0] * num_accounts)
        # Per account, the balance cell and read footprint ops share.
        self._bal = cells = {a: bal(a) for a in range(num_accounts)}
        self._reads = {a: OpFootprint(frozenset([c])) for a, c in cells.items()}

    # ------------------------------------------------------------------

    def initial_state(self) -> TokenState:
        return self._initial

    def batch(self, state: TokenState) -> "_TokenBatch":
        return _TokenBatch(self, state)

    def operation_names(self) -> tuple[str, ...]:
        if self.with_extensions:
            return self.CORE_OPERATIONS + self.EXTENSION_OPERATIONS
        return self.CORE_OPERATIONS

    def account_of(self, pid: int) -> int:
        """``a_p``: the account owned by process ``p`` (inverse of ``ω``)."""
        self._check_account(pid)
        return pid

    # -- validation ------------------------------------------------------

    def _check_process(self, pid: Any) -> None:
        if not isinstance(pid, int) or not 0 <= pid < self.num_accounts:
            raise InvalidArgumentError(f"unknown process {pid!r}")

    # -- Δ ----------------------------------------------------------------

    def apply(
        self, state: TokenState, pid: int, operation: Operation
    ) -> tuple[TokenState, Any]:
        # ``_handler`` and ``_check_process``, inline: every op pays them.
        try:
            handler = self._dispatch[operation.name]
        except KeyError:
            raise self._unknown_operation(operation) from None
        if not isinstance(pid, int) or not 0 <= pid < self.num_accounts:
            raise InvalidArgumentError(f"unknown process {pid!r}")
        return handler(state, pid, *operation.args)

    def _apply_transfer(
        self, state: TokenState, pid: int, dest: int, value: int
    ) -> tuple[TokenState, Any]:
        self._check_account(dest)
        self._check_value(value)
        source = self.account_of(pid)
        if state.balance(source) < value:
            return state, FALSE
        return state.with_transfer(source, dest, value), TRUE

    def _apply_transferFrom(
        self, state: TokenState, pid: int, source: int, dest: int, value: int
    ) -> tuple[TokenState, Any]:
        self._check_account(source)
        self._check_account(dest)
        self._check_value(value)
        if (
            state.balance(source) < value
            or state.allowance(source, pid) < value
        ):
            return state, FALSE
        return state.with_transfer_from(pid, source, dest, value), TRUE

    def _apply_approve(
        self, state: TokenState, pid: int, spender: int, value: int
    ) -> tuple[TokenState, Any]:
        self._check_process(spender)
        self._check_value(value)
        account = self.account_of(pid)
        return state.with_allowance(account, spender, value), TRUE

    def _apply_allowance(
        self, state: TokenState, pid: int, account: int, spender: int
    ) -> tuple[TokenState, Any]:
        self._check_account(account)
        self._check_process(spender)
        return state, state.allowance(account, spender)

    # -- spender bound and static footprints (engine fast path) ----------

    @staticmethod
    def spender_bound(state: TokenState, account: int) -> frozenset[int] | None:
        """``{ω(a)} ∪ {p : α(a, p) > 0}``: the owner plus every positive
        allowance, read off the allowance registers alone, as Algorithm 2's
        approve guard counts them (its line 17 never reads the balance).
        It contains ``σ_q(a)`` (Eq. 10), and equals it whenever
        ``β(a) > 0``.  ``state`` is a :class:`TokenState` or the engine's
        live batch, which answers the same two reads; ``None`` for an
        account out of range.  ω is the identity: ``a``'s owner is ``a``."""
        if not 0 <= account < state.num_accounts:
            return None
        return frozenset((account, *state.allowances_of(account)))

    def footprint(self, pid: int, operation: Operation) -> OpFootprint:
        """Static may-access footprint of Definition 3's operations.

        Captures the paper's case analysis state-independently: transfers
        observe their source balance and apply commutative deltas; approve
        is an absolute write to one allowance cell; the read-only methods
        observe their cells.  Degenerate invocations (zero value,
        self-transfer) collapse to read-only or empty footprints, matching
        the semantic oracle's judgment at every state.
        """
        # ``apply``'s name and caller checks, in its order and words.
        name, args = operation.name, operation.args
        if name not in self._dispatch:
            raise self._unknown_operation(operation)
        if not isinstance(pid, int) or not 0 <= pid < self.num_accounts:
            raise InvalidArgumentError(f"unknown process {pid!r}")
        if name == "transfer":
            dest, value = args
            if value == 0:
                return EMPTY_FOOTPRINT  # always succeeds, never writes
            read, cells = self._reads[pid], self._bal  # a_p: ω is the identity
            if dest == pid:
                return read
            credited = cells.get(dest) or bal(dest)
            return OpFootprint(read.observes, frozenset((cells[pid], credited)))
        if name == "transferFrom":
            source, dest, value = args
            if value == 0:
                return EMPTY_FOOTPRINT
            debited, cell = bal(source), allow(source, pid)
            observes = frozenset((debited, cell))
            if dest == source:
                return OpFootprint(observes, frozenset((cell,)))
            return OpFootprint(observes, frozenset((debited, bal(dest), cell)))
        if name == "approve":
            spender, _value = args
            return OpFootprint(sets=frozenset((allow(pid, spender),)))
        if name == "balanceOf":
            read = self._reads.get(args[0])
            return read or OpFootprint(frozenset((bal(args[0]),)))
        if name == "allowance":
            return OpFootprint(frozenset((allow(args[0], args[1]),)))
        if name == "totalSupply":
            return _SUPPLY_READ
        spender, delta = args
        if delta == 0:
            return EMPTY_FOOTPRINT
        cell = frozenset((allow(pid, spender),))
        if name == "increaseAllowance":
            return OpFootprint(adds=cell)
        # decreaseAllowance: guarded by the current allowance value.
        return OpFootprint(observes=cell, adds=cell)

    # -- extensions -------------------------------------------------------

    def _apply_increaseAllowance(
        self, state: TokenState, pid: int, spender: int, delta: int
    ) -> tuple[TokenState, Any]:
        self._check_process(spender)
        self._check_value(delta)
        account = self.account_of(pid)
        current = state.allowance(account, spender)
        return state.with_allowance(account, spender, current + delta), TRUE

    def _apply_decreaseAllowance(
        self, state: TokenState, pid: int, spender: int, delta: int
    ) -> tuple[TokenState, Any]:
        self._check_process(spender)
        self._check_value(delta)
        account = self.account_of(pid)
        current = state.allowance(account, spender)
        if current < delta:
            return state, FALSE
        return state.with_allowance(account, spender, current - delta), TRUE


class _TokenBatch:
    """:meth:`ERC20TokenType.batch`: Δ applied in place.

    The batch is its own private working copy of ``(β, α)``: β as a list,
    and each account's α map copied into ``_rows`` on its first write.
    Every operation runs through the unchanged spec ``apply`` with the
    batch in the state's place — the batch answers the reads and ``with_*``
    updates Δ's handlers use, updating itself and returning itself — so an
    ``apply`` here costs O(1) instead of a copy of β or of α's outer map.

    ``state()`` freezes the copy into a :class:`TokenState`, so later
    writes never touch a snapshot handed out; it is cached until the next
    write.  Freezing hands the written maps to the snapshot and rebases the
    batch onto it, so the next write copies a map again, and every map not
    written since stays shared with the snapshot before (and maps no
    operation wrote with the input state).

    An invalid operation raises and leaves ``state()`` as it was, and the
    batch keeps working: every handler validates its arguments before its
    single ``with_*`` call, so nothing is written before the raise.
    """

    __slots__ = ("_type", "_alpha", "_balances", "_supply", "_rows", "_frozen")

    def __init__(self, object_type: ERC20TokenType, state: TokenState) -> None:
        self._type = object_type
        #: The last snapshot's α; accounts not in ``_rows`` read its maps.
        self._alpha = state.allowances
        self._balances = list(state.balances)
        #: Δ conserves the supply: summed once, not per ``totalSupply``.
        self._supply = sum(self._balances)
        #: The maps written since the last snapshot: the batch's own copies.
        self._rows: dict[int, dict[int, int]] = {}
        #: ``state()``'s answer, or ``None`` after a write.
        self._frozen: TokenState | None = state

    def apply(self, pid: int, operation: Operation) -> Any:
        return self._type.apply(self, pid, operation)[1]

    def state(self) -> TokenState:
        frozen = self._frozen
        if frozen is None:
            if self._rows:
                rows = {**self._alpha._rows, **self._rows}
                self._alpha = Allowances({a: r for a, r in rows.items() if r})
                self._rows = {}
            frozen = TokenState(tuple(self._balances), self._alpha)
            self._frozen = frozen
        return frozen

    # -- the working copy, as Δ's handlers see it ------------------------

    @property
    def num_accounts(self) -> int:
        return len(self._balances)

    def balance(self, account: int) -> int:
        return self._balances[account]

    def allowance(self, account: int, spender: int) -> int:
        return self._row(account).get(spender, 0)

    def allowances_of(self, account: int) -> Mapping[int, int]:
        """``α(account, ·)``'s positive entries as they stand — the read
        team sizing makes at the live batch
        (:meth:`ERC20TokenType.spender_bound`)."""
        return MappingProxyType(self._row(account))

    def _row(self, account: int) -> dict[int, int]:
        row = self._rows.get(account)
        return self._alpha._rows.get(account, _NO_ROW) if row is None else row

    @property
    def total_supply(self) -> int:
        return self._supply

    def with_transfer(
        self, source: int, dest: int, value: int
    ) -> "_TokenBatch":
        balances = self._balances
        balances[source] -= value
        balances[dest] += value
        self._frozen = None
        return self

    def with_allowance(
        self, account: int, spender: int, value: int
    ) -> "_TokenBatch":
        row = self._rows.get(account)
        if row is None:
            row = self._rows[account] = dict(
                self._alpha._rows.get(account, _NO_ROW)
            )
        assign_allowance(row, spender, value)
        self._frozen = None
        return self

    #: The state's own: a transfer leaves the allowance it reads as it was.
    with_transfer_from = TokenState.with_transfer_from


class ERC20Token(SharedObject):
    """Runtime ERC20 token object with ergonomic call builders.

    The methods build :class:`OpCall` records for protocol generators; for
    direct sequential use, pass the call's operation to
    :meth:`SharedObject.invoke`.
    """

    def __init__(
        self,
        num_accounts: int,
        initial_state: TokenState | None = None,
        total_supply: int | None = None,
        deployer: int = 0,
        with_extensions: bool = False,
        name: str | None = None,
    ) -> None:
        super().__init__(
            ERC20TokenType(
                num_accounts,
                initial_state=initial_state,
                total_supply=total_supply,
                deployer=deployer,
                with_extensions=with_extensions,
            ),
            name=name,
        )

    # -- call builders ----------------------------------------------------

    def transfer(self, dest: int, value: int) -> OpCall:
        return self.call(Operation("transfer", (dest, value)))

    def transfer_from(self, source: int, dest: int, value: int) -> OpCall:
        return self.call(Operation("transferFrom", (source, dest, value)))

    def approve(self, spender: int, value: int) -> OpCall:
        return self.call(Operation("approve", (spender, value)))

    def balance_of(self, account: int) -> OpCall:
        return self.call(Operation("balanceOf", (account,)))

    def allowance(self, account: int, spender: int) -> OpCall:
        return self.call(Operation("allowance", (account, spender)))

    def total_supply(self) -> OpCall:
        return self.call(Operation("totalSupply"))

    def increase_allowance(self, spender: int, delta: int) -> OpCall:
        return self.call(Operation("increaseAllowance", (spender, delta)))

    def decrease_allowance(self, spender: int, delta: int) -> OpCall:
        return self.call(Operation("decreaseAllowance", (spender, delta)))
