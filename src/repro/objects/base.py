"""Runtime shared objects.

A :class:`SharedObject` pairs a sequential object type with a current state
and executes invocations atomically.  It is the runtime realization of the
model's base objects: every invocation happens at a single indivisible point
(the scheduler only ever executes one `OpCall` at a time).

Typed subclasses (e.g. :class:`repro.objects.register.AtomicRegister`) add
ergonomic methods that *build* :class:`~repro.runtime.calls.OpCall` records
for protocol generators to yield.  For direct sequential use (tests, analysis
code) the same methods can be executed immediately via :meth:`SharedObject.invoke`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import InvalidArgumentError
from repro.runtime.calls import OpCall
from repro.spec.object_type import FALSE, TRUE, SequentialObjectType
from repro.spec.operation import Operation


class AccountType(SequentialObjectType):
    """A type over the accounts ``0 .. num_accounts - 1``, with the argument
    checks every token family shares, and the ``Δ`` dispatch,
    ``balanceOf`` and ``totalSupply`` of those that do not spell out their
    own."""

    num_accounts: int

    def apply(
        self, state: Any, pid: int, operation: Operation
    ) -> tuple[Any, Any]:
        handler = self._handler(operation)
        self._check_account(pid)
        return handler(state, pid, *operation.args)

    def _apply_balanceOf(
        self, state: Any, pid: int, account: int
    ) -> tuple[Any, Any]:
        self._check_account(account)
        return state, state.balance(account)

    def _apply_totalSupply(self, state: Any, pid: int) -> tuple[Any, Any]:
        return state, state.total_supply

    def _check_account(self, account: Any) -> None:
        if not isinstance(account, int) or not 0 <= account < self.num_accounts:
            raise InvalidArgumentError(f"unknown account {account!r}")

    def _check_value(self, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise InvalidArgumentError(f"amount must be a natural number: {value!r}")


class OperatorApprovals(AccountType):
    """``setApprovalForAll`` and ``isApprovedForAll`` over
    ``state.operators``, as ERC721 and ERC1155 both define them."""

    def _apply_setApprovalForAll(
        self, state: Any, pid: int, operator: int, enabled: bool
    ) -> tuple[Any, Any]:
        self._check_account(operator)
        if operator == pid:
            return state, FALSE  # EIP-721: self-approval is rejected
        return with_operator(state, pid, operator, bool(enabled)), TRUE

    def _apply_isApprovedForAll(
        self, state: Any, pid: int, holder: int, operator: int
    ) -> tuple[Any, Any]:
        self._check_account(holder)
        self._check_account(operator)
        return state, operator in state.operators[holder]


def with_operator(state: Any, holder: int, operator: int, enabled: bool) -> Any:
    """``state`` with ``operator`` added to or dropped from
    ``state.operators[holder]``, the frozenset of ``holder``'s operators
    that the ERC721, ERC777 and ERC1155 states each keep as their last
    field; the state's own class is built again, all else as it was."""
    operators = list(state.operators)
    current = set(operators[holder])
    if enabled:
        current.add(operator)
    else:
        current.discard(operator)
    operators[holder] = frozenset(current)
    *kept, _ = (getattr(state, name) for name in state.__match_args__)
    return type(state)(*kept, tuple(operators))


class SharedObject:
    """A sequential object type instantiated with a mutable current state."""

    _counter = 0

    def __init__(
        self,
        object_type: SequentialObjectType,
        initial_state: Any | None = None,
        name: str | None = None,
    ) -> None:
        self.object_type = object_type
        self._state = (
            object_type.initial_state()
            if initial_state is None
            else initial_state
        )
        if name is None:
            SharedObject._counter += 1
            name = f"{object_type.name}#{SharedObject._counter}"
        self.name = name
        #: Optional hook invoked after each operation, used by executors to
        #: record histories: ``hook(pid, object, operation, result)``.
        self.on_invoke: (
            Callable[[int, "SharedObject", Operation, Any], None] | None
        ) = None

    # ------------------------------------------------------------------

    @property
    def state(self) -> Any:
        """The current (immutable) state ``q``."""
        return self._state

    def invoke(self, pid: int, operation: Operation) -> Any:
        """Atomically execute one operation and return its response."""
        self._state, result = self.object_type.apply(
            self._state, pid, operation
        )
        if self.on_invoke is not None:
            self.on_invoke(pid, self, operation, result)
        return result

    def call(self, operation: Operation) -> OpCall:
        """Build a pending call for protocol generators to yield."""
        return OpCall(self, operation)
