"""The `OpCall` primitive connecting protocol code to the runtime.

Protocol code is written as Python generators that ``yield`` one
:class:`OpCall` per *atomic shared-memory step*.  The scheduler decides when
each pending call executes; executing it is indivisible, exactly matching the
atomicity assumption on base objects in the shared-memory model (§3.1).

Example protocol step::

    response = yield register.write(value)

``register.write(value)`` builds an :class:`OpCall`; the runtime executes it
atomically at a scheduling point of its choosing and resumes the generator
with the response.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._records import record
from repro.spec.operation import Operation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.objects.base import SharedObject


@record(frozen=True, slots=True)
class OpCall:
    """A pending atomic operation on a shared object."""

    target: "SharedObject"
    operation: Operation

    def __str__(self) -> str:
        return f"{self.target.name}.{self.operation}"
