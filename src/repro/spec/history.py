"""Concurrent histories.

A *history* is a finite sequence of invocation and response events produced
by a concurrent execution (Herlihy & Wing).  The runtime's executor records
histories; the linearizability checker consumes them.

Events reference objects by name, so one history can span several shared
objects; per-object sub-histories are obtained with :meth:`History.project`.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro._records import field, record
from repro.errors import HistoryError
from repro.spec.operation import Invocation, Operation, Response


@record(frozen=True, slots=True)
class CompletedCall:
    """An invocation matched with its response (one linearizable candidate)."""

    pid: int
    object_name: str
    operation: Operation
    result: Any
    invoke_index: int
    response_index: int

    def overlaps(self, other: "CompletedCall") -> bool:
        """True when the two calls are concurrent (neither precedes the other)."""
        return not (
            self.response_index < other.invoke_index
            or other.response_index < self.invoke_index
        )

    def precedes(self, other: "CompletedCall") -> bool:
        """Real-time precedence: this call returned before the other began."""
        return self.response_index < other.invoke_index


@record
class History:
    """An append-only event log of invocations and responses."""

    events: list[Invocation | Response] = field(default_factory=list)

    def invoke(self, pid: int, object_name: str, operation: Operation) -> None:
        self.events.append(Invocation(pid, object_name, operation))

    def respond(
        self, pid: int, object_name: str, operation: Operation, result: Any
    ) -> None:
        self.events.append(Response(pid, object_name, operation, result))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Invocation | Response]:
        return iter(self.events)

    # ------------------------------------------------------------------

    def project(self, object_name: str) -> "History":
        """Sub-history of events on one object."""
        return History([e for e in self.events if e.object_name == object_name])

    def process_events(self, pid: int) -> list[Invocation | Response]:
        return [e for e in self.events if e.pid == pid]

    def is_well_formed(self) -> bool:
        """Each process alternates invocation/response, starting with an
        invocation, and each response matches the preceding invocation."""
        pending: dict[int, Invocation] = {}
        for event in self.events:
            if isinstance(event, Invocation):
                if event.pid in pending:
                    return False
                pending[event.pid] = event
            else:
                expected = pending.pop(event.pid, None)
                if expected is None:
                    return False
                if (
                    expected.object_name != event.object_name
                    or expected.operation != event.operation
                ):
                    return False
        return True

    def completed_calls(self) -> list[CompletedCall]:
        """Match invocations with responses; pending invocations are dropped.

        Raises:
            HistoryError: If the history is not well formed.
        """
        if not self.is_well_formed():
            raise HistoryError("history is not well formed")
        pending: dict[int, tuple[Invocation, int]] = {}
        calls: list[CompletedCall] = []
        for index, event in enumerate(self.events):
            if isinstance(event, Invocation):
                pending[event.pid] = (event, index)
            else:
                invocation, invoke_index = pending.pop(event.pid)
                calls.append(
                    CompletedCall(
                        pid=event.pid,
                        object_name=event.object_name,
                        operation=event.operation,
                        result=event.result,
                        invoke_index=invoke_index,
                        response_index=index,
                    )
                )
        return calls

    def pending_invocations(self) -> list[Invocation]:
        """Invocations that never received a response (crashed processes)."""
        pending: dict[int, Invocation] = {}
        for event in self.events:
            if isinstance(event, Invocation):
                pending[event.pid] = event
            else:
                pending.pop(event.pid, None)
        return list(pending.values())


def sequential_history(
    calls: list[tuple[int, str, Operation, Any]]
) -> History:
    """Build a (trivially linearizable) sequential history from completed
    calls given as ``(pid, object_name, operation, result)``."""
    history = History()
    for pid, object_name, operation, result in calls:
        history.invoke(pid, object_name, operation)
        history.respond(pid, object_name, operation, result)
    return history
