"""Algorithm 2: wait-free implementation of the restricted token ``T|_{Q_k}``
from ``k``-shared asset transfer plus atomic registers (paper, Theorem 4).

The implementation keeps, for every account ``a``, one allowance register
``R_a[j]`` per process ``p_j`` (initialized from the starting state's
``α``), and one asset-transfer object holding the balances with owner map
``µ(a) = σ_q(a)``.  The paper handles the *static* owner map of ``k``-AT by
spawning "a new instance of the k-AT object, with the same balances as the
previous instance and an owner map reflecting the updated allowances"
whenever a spender set changes; this library expresses the same thing with
the observationally-equivalent :class:`~repro.objects.asset_transfer.DynamicOwnerAT`
whose ``setOwners`` meta-operation enforces the ``k`` bound (see that class's
docstring).

Three variants are provided:

* ``literal`` — a line-by-line transcription of Algorithm 2, including its
  quirks: the approve guard rejects *any* approve once ``k`` spenders are
  enabled (even re-approvals and revocations), the allowance is decremented
  before the balance check so a failed transfer leaks allowance, and
  ``totalSupply`` sums non-atomic balance reads.
* ``corrected`` — same structure with the three quirks fixed (guard rejects
  only *new* spenders beyond ``k``; allowance restored when the inner
  transfer fails; atomic supply read).  Note that the allowance cells are
  still **multi-writer** (owner's approve vs. spender's decrement), so a
  targeted schedule can still lose an update — the erratum demonstrated in
  the tests (README.md, Reproduction note 2).
* :class:`SafeEmulatedToken` — replaces each allowance cell with a pair of
  *single-writer* cumulative counters (``granted`` written by the owner,
  ``spent`` by the spender), with increase/decrease-allowance semantics.
  This removes the multi-writer race entirely — the same move the Ethereum
  community made when the ERC20 approve front-running attack was found.

All emulated methods are generators intended for ``yield from`` inside
process programs; each yields one atomic base-object step at a time.  When a
:class:`~repro.spec.history.History` is attached, emulated-level invocation/
response events are recorded for linearizability checking against the
restricted sequential specification.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.analysis.spenders import spender_map
from repro.errors import InvalidArgumentError
from repro.objects.asset_transfer import DynamicOwnerAT
from repro.objects.erc20 import TokenState
from repro.objects.register import AtomicRegister
from repro.runtime.calls import OpCall
from repro.spec.history import History
from repro.spec.object_type import FALSE, TRUE
from repro.spec.operation import Operation

EmulatedOp = Generator[OpCall, Any, Any]

_VARIANTS = ("literal", "corrected")


class EmulatedToken:
    """Algorithm 2: ``T|_{Q_k}`` from a (dynamic-owner) ``k``-AT + registers."""

    def __init__(
        self,
        initial_state: TokenState,
        k: int,
        variant: str = "corrected",
        history: History | None = None,
        name: str = "emulated-token",
    ) -> None:
        """Args:
            initial_state: The starting token state ``q ∈ Q_k`` (its
                potential-spender count must not exceed ``k``).
            k: The sharing bound of the underlying asset-transfer object.
            variant: ``"literal"`` or ``"corrected"`` (see module docstring).
            history: Optional emulated-level history for linearizability
                checks.
            name: Object name used in recorded histories.
        """
        if variant not in _VARIANTS:
            raise InvalidArgumentError(f"variant must be one of {_VARIANTS}")
        self.variant = variant
        self.k = k
        self.name = name
        self.history = history
        self.num_accounts = initial_state.num_accounts
        sigma = spender_map(initial_state)
        # The initial owner map must respect the k bound (q ∈ Q_{<=k}).
        for account, spenders in enumerate(sigma):
            if len(spenders) > k:
                raise InvalidArgumentError(
                    f"account {account} has {len(spenders)} enabled spenders; "
                    f"the state lies outside Q_{k}"
                )
        # Lines 2-4: balances and owner map from state q.  The owner map uses
        # the *potential* spender sets (allowance-positive processes plus the
        # owner) so that funding an account later does not require an owner
        # update; it still respects the k bound whenever the initial state's
        # potential level does.
        owner_map: list[set[int]] = []
        for account in range(self.num_accounts):
            owners = {account} | {
                pid
                for pid in range(self.num_accounts)
                if initial_state.allowance(account, pid) > 0
            }
            if len(owners) > k:
                raise InvalidArgumentError(
                    f"account {account} has {len(owners)} potential spenders; "
                    f"Algorithm 2 requires at most k={k}"
                )
            owner_map.append(owners)
        self.kat = DynamicOwnerAT(
            initial_balances=initial_state.balances,
            owner_map=owner_map,
            num_processes=self.num_accounts,
            max_owners=k,
            name=f"{name}.kat",
        )
        # Lines 5-6: allowance registers R_a[j] initialized from α.
        self.allowance_registers: list[list[AtomicRegister]] = [
            [
                AtomicRegister(
                    name=f"{name}.R[{account}][{pid}]",
                    initial=initial_state.allowance(account, pid),
                )
                for pid in range(self.num_accounts)
            ]
            for account in range(self.num_accounts)
        ]

    # ------------------------------------------------------------------

    @property
    def base_objects(self) -> list[Any]:
        """Every base object the emulation uses (for explorer System specs)."""
        registers = [r for row in self.allowance_registers for r in row]
        return [self.kat, *registers]

    def _recorded(
        self, pid: int, op_name: str, args: tuple[Any, ...], body: EmulatedOp
    ) -> EmulatedOp:
        operation = Operation(op_name, args)
        if self.history is not None:
            self.history.invoke(pid, self.name, operation)
        result = yield from body
        if self.history is not None:
            self.history.respond(pid, self.name, operation, result)
        return result

    # -- public emulated operations (paper line numbers in comments) -----

    def transfer(self, pid: int, dest: int, value: int) -> EmulatedOp:
        """Lines 12-13: transfer from the caller's own account."""
        return self._recorded(
            pid, "transfer", (dest, value), self._transfer(pid, dest, value)
        )

    def transfer_from(
        self, pid: int, source: int, dest: int, value: int
    ) -> EmulatedOp:
        """Lines 7-11: spend from ``source`` using the caller's allowance."""
        return self._recorded(
            pid,
            "transferFrom",
            (source, dest, value),
            self._transfer_from(pid, source, dest, value),
        )

    def approve(self, pid: int, spender: int, value: int) -> EmulatedOp:
        """Lines 16-24: set the caller's allowance for ``spender``."""
        return self._recorded(
            pid, "approve", (spender, value), self._approve(pid, spender, value)
        )

    def balance_of(self, pid: int, account: int) -> EmulatedOp:
        """Lines 14-15."""
        return self._recorded(
            pid, "balanceOf", (account,), self._balance_of(pid, account)
        )

    def allowance(self, pid: int, account: int, spender: int) -> EmulatedOp:
        """Lines 25-26."""
        return self._recorded(
            pid,
            "allowance",
            (account, spender),
            self._allowance(pid, account, spender),
        )

    def total_supply(self, pid: int) -> EmulatedOp:
        """Lines 27-28."""
        return self._recorded(pid, "totalSupply", (), self._total_supply(pid))

    # -- implementations ---------------------------------------------------

    def _transfer(self, pid: int, dest: int, value: int) -> EmulatedOp:
        result = yield self.kat.transfer(pid, dest, value)
        return result

    def _transfer_from(
        self, pid: int, source: int, dest: int, value: int
    ) -> EmulatedOp:
        current = yield self.allowance_registers[source][pid].read()  # line 8
        if current < value:
            return FALSE  # line 9
        if value == 0 and self.variant == "corrected":
            # Definition 3 accepts a zero-value transferFrom from anyone, but
            # k-AT.transfer rejects non-owners even for value 0; short-circuit
            # the vacuous move (Reproduction note 2: the literal algorithm
            # deviates from the specification here).
            return TRUE
        # line 10: R_as[i] -= value (a read-then-write; NOT atomic).
        yield self.allowance_registers[source][pid].write(current - value)
        ok = yield self.kat.transfer(source, dest, value)  # line 11
        if not ok and self.variant == "corrected":
            # The inner transfer failed (insufficient balance or a stale
            # owner map); restore the allowance the literal algorithm leaks.
            now = yield self.allowance_registers[source][pid].read()
            yield self.allowance_registers[source][pid].write(now + value)
            return FALSE
        return ok

    def _enabled_count(self, account: int) -> EmulatedOp:
        """``|{p_a} ∪ {p_j : R_a[j] > 0}|`` — the guard's census (line 17)."""
        count = 1  # the owner p_a
        for pid in range(self.num_accounts):
            if pid == account:
                continue
            value = yield self.allowance_registers[account][pid].read()
            if value > 0:
                count += 1
        return count

    def _scan_spenders(self, account: int) -> EmulatedOp:
        """``{p_a} ∪ {p_j : R_a[j] > 0}`` — the owner-map census (line 23)."""
        spenders = {account}
        for pid in range(self.num_accounts):
            if pid == account:
                continue
            value = yield self.allowance_registers[account][pid].read()
            if value > 0:
                spenders.add(pid)
        return frozenset(spenders)

    def _approve(self, pid: int, spender: int, value: int) -> EmulatedOp:
        account = pid  # ai: the caller's own account
        if self.variant == "literal":
            # Line 17: reject any approve once k spenders are enabled —
            # including re-approvals and revocations (Reproduction note 2).
            count = yield from self._enabled_count(account)
            if count == self.k:
                return FALSE  # line 18
        else:
            # Corrected guard: only adding a NEW spender can leave Q_k.
            current = yield self.allowance_registers[account][spender].read()
            if value > 0 and spender != account and current == 0:
                count = yield from self._enabled_count(account)
                if count >= self.k:
                    return FALSE
        old_value = yield self.allowance_registers[account][spender].read()  # 19
        yield self.allowance_registers[account][spender].write(value)  # 20
        if old_value == 0 and value > 0:  # line 21
            if self.variant == "literal":
                # Lines 22-23: refresh the owner map of EVERY account.
                for other in range(self.num_accounts):
                    spenders = yield from self._scan_spenders(other)
                    yield self.kat.set_owners(other, spenders)
            else:
                # Only the caller's account changed.
                spenders = yield from self._scan_spenders(account)
                yield self.kat.set_owners(account, spenders)
        return TRUE  # line 24

    def _balance_of(self, pid: int, account: int) -> EmulatedOp:
        result = yield self.kat.balance_of(account)
        return result

    def _allowance(self, pid: int, account: int, spender: int) -> EmulatedOp:
        result = yield self.allowance_registers[account][spender].read()
        return result

    def _total_supply(self, pid: int) -> EmulatedOp:
        if self.variant == "literal":
            # Line 28: a non-atomic sum of per-account reads; concurrent
            # transfers can be double-counted or missed (Reproduction note 2).
            total = 0
            for account in range(self.num_accounts):
                total += yield self.kat.balance_of(account)
            return total
        result = yield self.kat.total_supply()
        return result


class SafeEmulatedToken:
    """Single-writer variant of Algorithm 2 (Reproduction note 2).

    Allowances are represented as ``granted[a][j] - spent[a][j]`` where the
    ``granted`` register is written only by the owner of ``a`` and the
    ``spent`` register only by spender ``j``; both are cumulative counters.
    The owner adjusts allowances with ``increaseAllowance`` /
    ``decreaseAllowance`` (ERC20's absolute-assignment ``approve`` is
    inherently racy against concurrent spends, which is the well-known ERC20
    approve attack; the single-writer discipline forces the increase/decrease
    API).
    """

    def __init__(
        self,
        initial_state: TokenState,
        k: int,
        history: History | None = None,
        name: str = "safe-emulated-token",
    ) -> None:
        self.k = k
        self.name = name
        self.history = history
        self.num_accounts = initial_state.num_accounts
        owner_map: list[set[int]] = []
        for account in range(self.num_accounts):
            owners = {account} | {
                pid
                for pid in range(self.num_accounts)
                if initial_state.allowance(account, pid) > 0
            }
            if len(owners) > k:
                raise InvalidArgumentError(
                    f"account {account} exceeds the k={k} spender bound"
                )
            owner_map.append(owners)
        self.kat = DynamicOwnerAT(
            initial_balances=initial_state.balances,
            owner_map=owner_map,
            num_processes=self.num_accounts,
            max_owners=k,
            name=f"{name}.kat",
        )
        self.granted: list[list[AtomicRegister]] = [
            [
                AtomicRegister(
                    name=f"{name}.G[{a}][{j}]",
                    initial=initial_state.allowance(a, j),
                )
                for j in range(self.num_accounts)
            ]
            for a in range(self.num_accounts)
        ]
        self.spent: list[list[AtomicRegister]] = [
            [
                AtomicRegister(name=f"{name}.S[{a}][{j}]", initial=0)
                for j in range(self.num_accounts)
            ]
            for a in range(self.num_accounts)
        ]

    @property
    def base_objects(self) -> list[Any]:
        registers = [r for row in self.granted for r in row]
        registers += [r for row in self.spent for r in row]
        return [self.kat, *registers]

    def _recorded(
        self, pid: int, op_name: str, args: tuple[Any, ...], body: EmulatedOp
    ) -> EmulatedOp:
        operation = Operation(op_name, args)
        if self.history is not None:
            self.history.invoke(pid, self.name, operation)
        result = yield from body
        if self.history is not None:
            self.history.respond(pid, self.name, operation, result)
        return result

    # -- public operations -------------------------------------------------

    def transfer(self, pid: int, dest: int, value: int) -> EmulatedOp:
        return self._recorded(
            pid, "transfer", (dest, value), self._transfer(pid, dest, value)
        )

    def transfer_from(
        self, pid: int, source: int, dest: int, value: int
    ) -> EmulatedOp:
        return self._recorded(
            pid,
            "transferFrom",
            (source, dest, value),
            self._transfer_from(pid, source, dest, value),
        )

    def increase_allowance(
        self, pid: int, spender: int, delta: int
    ) -> EmulatedOp:
        return self._recorded(
            pid,
            "increaseAllowance",
            (spender, delta),
            self._increase_allowance(pid, spender, delta),
        )

    def decrease_allowance(
        self, pid: int, spender: int, delta: int
    ) -> EmulatedOp:
        return self._recorded(
            pid,
            "decreaseAllowance",
            (spender, delta),
            self._decrease_allowance(pid, spender, delta),
        )

    def allowance(self, pid: int, account: int, spender: int) -> EmulatedOp:
        return self._recorded(
            pid,
            "allowance",
            (account, spender),
            self._allowance(pid, account, spender),
        )

    def balance_of(self, pid: int, account: int) -> EmulatedOp:
        return self._recorded(
            pid, "balanceOf", (account,), self._balance_of(pid, account)
        )

    def total_supply(self, pid: int) -> EmulatedOp:
        return self._recorded(pid, "totalSupply", (), self._total_supply(pid))

    # -- implementations -----------------------------------------------------

    def _transfer(self, pid: int, dest: int, value: int) -> EmulatedOp:
        result = yield self.kat.transfer(pid, dest, value)
        return result

    def _transfer_from(
        self, pid: int, source: int, dest: int, value: int
    ) -> EmulatedOp:
        granted = yield self.granted[source][pid].read()
        spent = yield self.spent[source][pid].read()
        if granted - spent < value:
            return FALSE
        if value == 0:
            return TRUE  # vacuous move; see EmulatedToken._transfer_from
        # Reserve the allowance in my single-writer cell, then move funds.
        yield self.spent[source][pid].write(spent + value)
        ok = yield self.kat.transfer(source, dest, value)
        if not ok:
            # Roll back the reservation (own cell: no lost-update risk).
            yield self.spent[source][pid].write(spent)
            return FALSE
        return TRUE

    def _potential_count(self, account: int) -> EmulatedOp:
        count = 1
        for pid in range(self.num_accounts):
            if pid == account:
                continue
            granted = yield self.granted[account][pid].read()
            spent = yield self.spent[account][pid].read()
            if granted - spent > 0:
                count += 1
        return count

    def _scan_spenders(self, account: int) -> EmulatedOp:
        spenders = {account}
        for pid in range(self.num_accounts):
            if pid == account:
                continue
            granted = yield self.granted[account][pid].read()
            spent = yield self.spent[account][pid].read()
            if granted - spent > 0:
                spenders.add(pid)
        return frozenset(spenders)

    def _increase_allowance(
        self, pid: int, spender: int, delta: int
    ) -> EmulatedOp:
        account = pid
        granted = yield self.granted[account][spender].read()
        spent = yield self.spent[account][spender].read()
        current = granted - spent
        if delta > 0 and spender != account and current <= 0:
            count = yield from self._potential_count(account)
            if count >= self.k:
                return FALSE  # stay within Q_k
        yield self.granted[account][spender].write(granted + delta)
        if current <= 0 and delta > 0:
            spenders = yield from self._scan_spenders(account)
            yield self.kat.set_owners(account, spenders)
        return TRUE

    def _decrease_allowance(
        self, pid: int, spender: int, delta: int
    ) -> EmulatedOp:
        account = pid
        granted = yield self.granted[account][spender].read()
        spent = yield self.spent[account][spender].read()
        if granted - spent < delta:
            return FALSE
        yield self.granted[account][spender].write(granted - delta)
        return TRUE

    def _allowance(self, pid: int, account: int, spender: int) -> EmulatedOp:
        granted = yield self.granted[account][spender].read()
        spent = yield self.spent[account][spender].read()
        return max(granted - spent, 0)

    def _balance_of(self, pid: int, account: int) -> EmulatedOp:
        result = yield self.kat.balance_of(account)
        return result

    def _total_supply(self, pid: int) -> EmulatedOp:
        result = yield self.kat.total_supply()
        return result


def run_sequential(
    emulated: EmulatedToken | SafeEmulatedToken,
    pid: int,
    method: str,
    *args: Any,
) -> Any:
    """Drive one emulated operation to completion with no concurrency
    (sequential differential testing helper)."""
    generator: EmulatedOp = getattr(emulated, method)(pid, *args)
    try:
        call = next(generator)
        while True:
            result = call.target.invoke(pid, call.operation)
            call = generator.send(result)
    except StopIteration as stop:
        return stop.value


def workload_program(
    emulated: EmulatedToken | SafeEmulatedToken,
    pid: int,
    steps: Iterable[tuple[str, tuple[Any, ...]]],
) -> EmulatedOp:
    """A process program performing a sequence of emulated operations
    (method name + args), for concurrent differential tests.  Returns the
    responses as a tuple (hashable, so explorer memo keys stay sound)."""
    results = []
    for method, args in steps:
        result = yield from getattr(emulated, method)(pid, *args)
        results.append(result)
    return tuple(results)
