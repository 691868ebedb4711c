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
from repro.spec.object_type import SequentialObjectType
from repro.spec.operation import Operation


class AccountType(SequentialObjectType):
    """A type over the accounts ``0 .. num_accounts - 1``, with the argument
    checks every token family shares."""

    num_accounts: int

    def _check_account(self, account: Any) -> None:
        if not isinstance(account, int) or not 0 <= account < self.num_accounts:
            raise InvalidArgumentError(f"unknown account {account!r}")

    def _check_value(self, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise InvalidArgumentError(f"amount must be a natural number: {value!r}")


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
