"""Operations and operation events.

An :class:`Operation` is an element of the operation set ``O`` of a sequential
object type ``T = (Q, q0, O, R, Δ)`` (paper, §3.1).  Operations are immutable
and hashable so that they can serve as dictionary keys in analysis tools
(commutativity matrices, valency memoization) and appear in recorded
histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro._records import frozen_record


@frozen_record
class Operation:
    """A single operation invocation descriptor.

    Attributes:
        name: The operation's method name, e.g. ``"transfer"``.
        args: Positional arguments, stored as a tuple so the record is
            hashable.
    """

    name: str
    args: tuple[Any, ...] = ()

    def __str__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({rendered})"


def op(name: str, *args: Any) -> Operation:
    """Convenience constructor: ``op("transfer", 1, 5)``."""
    return Operation(name, tuple(args))


@dataclass(frozen=True, slots=True)
class Invocation:
    """A process invoking an operation on a named object."""

    pid: int
    object_name: str
    operation: Operation

    def __str__(self) -> str:
        return f"p{self.pid}: {self.object_name}.{self.operation}"


@dataclass(frozen=True, slots=True)
class Response:
    """The matching response to an :class:`Invocation`."""

    pid: int
    object_name: str
    operation: Operation
    result: Any = field(default=None)

    def __str__(self) -> str:
        return (
            f"p{self.pid}: {self.object_name}.{self.operation} -> {self.result!r}"
        )
