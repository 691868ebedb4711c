"""Algorithm 1: wait-free consensus from an ERC20 token in a synchronization
state (paper, Theorem 2).

Given a token object ``T_q`` with ``q ∈ S_k`` — i.e. some account ``a1`` has
``k`` enabled spenders ``σ_q(a1) = {p1, …, pk}`` (owner first) and the
unique-transfer predicate ``U(a1, q)`` holds — plus ``k`` atomic registers,
the following solves consensus among the ``k`` spenders (paper Algorithm 1,
transcribed with 0-based indices):

    operation propose(v):                        # code for process p_i
        R[i].write(v)
        if p_i is the owner p_1:  T.transfer(a_d, B)            # full balance
        else:                     T.transferFrom(a_1, a_d, A_i) # full allowance
        for j in {2, …, k}:
            if T.allowance(a_1, p_j) = 0:  return R[j].read()
        return R[1].read()

Exactly one of the transfer attempts succeeds (guaranteed by ``U``; see the
erratum note in :mod:`repro.analysis.partition` — the library's canonical
setups use the strengthened ``U*``), the winner is identified either by its
zeroed allowance or, when no allowance is zero, as the owner, and every
process decides the winner's registered proposal.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, Sequence

from repro.analysis.partition import (
    make_synchronization_state,
    unique_transfer,
    unique_transfer_strict,
)
from repro.analysis.spenders import enabled_spenders
from repro.errors import InvalidArgumentError, ProtocolError
from repro.objects.erc20 import ERC20Token, TokenState
from repro.objects.register import AtomicRegister, register_array
from repro.runtime.calls import OpCall
from repro.runtime.executor import System


class TokenConsensus:
    """Algorithm 1, configured from a token object in a synchronization state.

    Args:
        token: The shared ERC20 token object ``T_q``.
        account: The synchronization account ``a1``.
        dest: The destination account ``a_d``; the paper picks any account in
            the spender set other than ``a1``; any account ≠ ``a1`` works and
            is accepted.
        registers: The ``k`` atomic registers ``R[1..k]`` (created fresh when
            omitted).
        require_unique_transfer: Verify that the configured account satisfies
            the (strengthened) unique-transfer predicate at construction.
        strict: Use the strengthened predicate ``U*`` (README.md,
            Reproduction note 1); set ``False`` to reproduce the paper's
            literal, weaker check.
    """

    def __init__(
        self,
        token: ERC20Token,
        account: int,
        dest: int | None = None,
        registers: Sequence[AtomicRegister] | None = None,
        require_unique_transfer: bool = True,
        strict: bool = True,
    ) -> None:
        state: TokenState = token.state
        spenders = enabled_spenders(state, account)
        owner = account  # ω is the identity
        if owner not in spenders:
            raise ProtocolError("owner missing from enabled spenders")
        if require_unique_transfer:
            predicate = unique_transfer_strict if strict else unique_transfer
            if not predicate(state, account):
                raise InvalidArgumentError(
                    f"account {account} does not satisfy the unique-transfer "
                    f"predicate; the state is not in S_k"
                )
        self.token = token
        self.account = account
        #: Participants p_1..p_k, owner first then spenders in pid order.
        self.participants: tuple[int, ...] = (owner,) + tuple(
            sorted(spenders - {owner})
        )
        self.k = len(self.participants)
        if dest is None:
            dest = next(
                a for a in range(state.num_accounts + 1) if a != account
            ) if state.num_accounts > 1 else account
            if dest >= state.num_accounts:
                raise InvalidArgumentError(
                    "cannot pick a destination account distinct from a1"
                )
        self.dest = dest
        #: B: the balance of a1 at configuration time.
        self.balance = state.balance(account)
        #: A_i: allowance of each non-owner participant at configuration time.
        self.allowances: dict[int, int] = {
            pid: state.allowance(account, pid) for pid in self.participants[1:]
        }
        if registers is None:
            registers = register_array(self.k, prefix="R")
        if len(registers) != self.k:
            raise InvalidArgumentError(
                f"need exactly k={self.k} registers, got {len(registers)}"
            )
        self.registers = list(registers)

    # ------------------------------------------------------------------

    def index_of(self, pid: int) -> int:
        """Participant index (0 = owner = the paper's p1)."""
        try:
            return self.participants.index(pid)
        except ValueError:
            raise InvalidArgumentError(
                f"process {pid} is not an enabled spender of account {self.account}"
            ) from None

    def propose(self, pid: int, value: Any) -> Generator[OpCall, Any, Any]:
        """The propose operation for process ``pid`` (one generator per call)."""
        i = self.index_of(pid)
        yield self.registers[i].write(value)
        if i == 0:
            # The owner attempts to transfer the full balance B.
            yield self.token.transfer(self.dest, self.balance)
        else:
            # Spenders attempt to transfer their full allowance A_i.
            yield self.token.transfer_from(
                self.account, self.dest, self.allowances[pid]
            )
        for j in range(1, self.k):
            allowance = yield self.token.allowance(
                self.account, self.participants[j]
            )
            if allowance == 0:
                decision = yield self.registers[j].read()
                return decision
        decision = yield self.registers[0].read()
        return decision


def algorithm1_system(
    proposals: Mapping[int, Any],
    num_accounts: int | None = None,
    account: int = 0,
    balance: int | None = None,
    state: TokenState | None = None,
    strict: bool = True,
) -> System:
    """Build a fresh Algorithm 1 system for the explorer/executor.

    By default constructs the canonical ``S_k`` state for ``k =
    len(proposals)`` participants via
    :func:`repro.analysis.partition.make_synchronization_state` and wires one
    ``propose`` program per participant.

    Args:
        proposals: Proposal per participating pid; participants must be
            exactly the enabled spenders of the chosen account.
        num_accounts: Total accounts ``n`` (defaults to ``max(k + 1, 2)``).
        account: The synchronization account ``a1``.
        balance: Balance ``B`` of ``a1`` (defaults to ``k``).
        state: Explicit initial token state overriding the canonical one.
        strict: Enforce the strengthened predicate ``U*``.
    """
    k = len(proposals)
    if k < 1:
        raise InvalidArgumentError("need at least one participant")
    if state is None:
        if num_accounts is None:
            num_accounts = max(k + 1, 2)
        state = make_synchronization_state(
            num_accounts, k, account=account, balance=balance
        )
    token = ERC20Token(state.num_accounts, initial_state=state)
    protocol = TokenConsensus(
        token, account=account, require_unique_transfer=True, strict=strict
    )
    participants = set(protocol.participants)
    if participants != set(proposals):
        raise InvalidArgumentError(
            f"proposals must cover exactly the enabled spenders "
            f"{sorted(participants)}, got {sorted(proposals)}"
        )
    ordered = sorted(protocol.participants)
    programs = [
        (lambda p=pid: protocol.propose(p, proposals[p])) for pid in ordered
    ]
    return System(
        programs=programs,
        objects=[token, *protocol.registers],
        meta={
            "proposals": dict(proposals),
            "protocol": protocol,
            "participants": ordered,
        },
        pids=ordered,
    )
