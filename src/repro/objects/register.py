"""Atomic registers (paper §3.1, "Registers").

An atomic multi-reader multi-writer register with ``read``/``write``.  The
runtime executes each operation at a single indivisible point, which yields
exactly the atomic-register semantics assumed by the paper (a total order of
operations consistent with real time).

Consensus number of a register is 1 (FLP / Herlihy); the hierarchy registry in
:mod:`repro.analysis.hierarchy` records this.
"""

from __future__ import annotations

from typing import Any

from repro.errors import InvalidArgumentError
from repro.objects.base import SharedObject
from repro.runtime.calls import OpCall
from repro.spec.object_type import TRUE, SequentialObjectType
from repro.spec.operation import Operation


#: The paper initializes registers to an out-of-band "empty" value ⊥.
BOTTOM = None


class RegisterType(SequentialObjectType):
    """Sequential specification of an atomic register; state is the value."""

    name = "register"

    def __init__(self, initial: Any = BOTTOM) -> None:
        self._initial = initial

    def initial_state(self) -> Any:
        return self._initial

    def operation_names(self) -> tuple[str, ...]:
        return ("read", "write")

    def apply(
        self, state: Any, pid: int, operation: Operation
    ) -> tuple[Any, Any]:
        self.validate_name(operation)
        if operation.name == "read":
            if operation.args:
                raise InvalidArgumentError("read takes no arguments")
            return state, state
        # write
        if len(operation.args) != 1:
            raise InvalidArgumentError("write takes exactly one argument")
        return operation.args[0], TRUE


class AtomicRegister(SharedObject):
    """Runtime atomic register with ergonomic call builders."""

    def __init__(self, name: str | None = None, initial: Any = BOTTOM) -> None:
        super().__init__(
            RegisterType(initial), initial_state=initial, name=name
        )

    def read(self) -> OpCall:
        return self.call(Operation("read"))

    def write(self, value: Any) -> OpCall:
        return self.call(Operation("write", (value,)))


def register_array(count: int, prefix: str = "R") -> list[AtomicRegister]:
    """The paper's ``R[1..k]``: a list of named atomic registers.

    Indices are 0-based in code; register ``R[j]`` of the paper is
    ``array[j-1]`` here (README.md, Reproduction note 4).
    """
    if count < 0:
        raise InvalidArgumentError("register array size must be non-negative")
    return [AtomicRegister(name=f"{prefix}[{j}]") for j in range(count)]
