"""Mempool: admission-ordered queue of pending token operations.

The engine's client-facing edge.  Operations arrive (typically from a
:mod:`repro.workloads` generator) and are stamped with a monotonically
increasing sequence number — the *submission order* that defines the
engine's serial-equivalence contract: the final state and every response
are identical to executing the whole workload sequentially in submission
order (see :mod:`repro.engine.pipeline`).

A mempool may be *bounded* (``capacity``): submissions beyond the bound
raise :class:`~repro.errors.MempoolFullError` and are counted in
``rejected``.  Backpressure is the admission-control knob of the cluster
router (:mod:`repro.cluster`), which sheds load instead of queueing
without limit.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro._records import record
from repro.errors import InvalidArgumentError, MempoolFullError
from repro.spec.operation import Operation
from repro.workloads.generators import WorkloadItem


@record(frozen=True, slots=True)
class PendingOp:
    """One submitted operation awaiting execution."""

    seq: int
    pid: int
    operation: Operation

    def __str__(self) -> str:
        return f"#{self.seq} p{self.pid}.{self.operation}"

    def __repr__(self) -> str:
        return f"op({self.seq},{self.pid},{self.operation})"


class Mempool:
    """FIFO of :class:`PendingOp` with submission-order sequence stamps."""

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise InvalidArgumentError("mempool capacity must be positive")
        self.capacity = capacity
        self._queue: deque[PendingOp] = deque()
        self.submitted = 0
        self.rejected = 0

    def submit(self, pid: int, operation: Operation) -> PendingOp:
        """Admit one operation; returns its stamped record.

        Raises :class:`MempoolFullError` (and counts the drop) when a
        bounded mempool is at capacity.
        """
        if not isinstance(operation, Operation):
            raise InvalidArgumentError("mempool accepts Operation instances")
        if self.capacity is not None and len(self._queue) >= self.capacity:
            self.rejected += 1
            raise MempoolFullError(
                f"mempool at capacity {self.capacity}; operation rejected"
            )
        pending = PendingOp(self.submitted, pid, operation)
        self.submitted += 1
        self._queue.append(pending)
        return pending

    def feed(self, items: Iterable[WorkloadItem]) -> list[PendingOp]:
        """Admit a workload (e.g. ``TokenWorkloadGenerator.generate(n)``)."""
        return [self.submit(item.pid, item.operation) for item in items]

    def pop_window(self, limit: int) -> list[PendingOp]:
        """Remove and return up to ``limit`` oldest pending operations."""
        if limit < 1:
            raise InvalidArgumentError("window must be positive")
        window = []
        while self._queue and len(window) < limit:
            window.append(self._queue.popleft())
        return window

    def __len__(self) -> int:
        return len(self._queue)
