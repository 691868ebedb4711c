"""Virtual-time discrete-event simulation.

The paper's motivation (§1, §7) contrasts consensus-based blockchains with
broadcast-based token networks.  Comparing those *protocol structures* needs
an asynchronous message-passing substrate; real wall-clock threading in
Python would measure the GIL, not the protocols, so the library uses a
deterministic event-driven simulator with virtual time: every message
delivery and timer is an event on a priority queue, and latency/throughput
are measured in simulated time units (interpreted as milliseconds in the
benchmarks).

A heap entry is a plain ``[time, seq, callback, arg]`` list: ``seq`` is
unique, so the heap orders entries on ``(time, seq)`` in C and never
reaches the callback.  A ``None`` callback marks an entry that is cancelled
(a tombstone) or already run.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable

from repro.errors import NetworkError

#: ``arg`` of an entry whose callback takes no argument (a timer).
_NO_ARG = object()


class EventHandle:
    """Handle to a scheduled event; supports cancellation.  A view over
    the event's heap entry."""

    __slots__ = ("_entry", "_simulator")

    def __init__(self, entry: list, simulator: Simulator) -> None:
        self._entry = entry
        self._simulator = simulator

    def cancel(self) -> None:
        if self._entry[2] is not None:
            self._entry[2] = None
            self._simulator._note_cancelled()

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def active(self) -> bool:
        """Whether the event is still scheduled (not cancelled and not
        yet consumed by the loop)."""
        return self._entry[2] is not None


class Simulator:
    """A minimal, deterministic discrete-event loop with virtual time."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[list] = []
        self._seq = itertools.count()
        self._cancelled = 0
        self.events_processed = 0
        self.purges = 0

    def post(
        self, delay: float, callback: Callable, arg: Any = _NO_ARG
    ) -> list:
        """Queue ``callback(arg)`` — ``callback()`` without ``arg`` —
        ``delay`` time units from now, with no handle: the per-message
        path (:meth:`Network.send <repro.net.network.Network.send>`).
        Returns the heap entry."""
        if delay < 0:
            raise NetworkError("cannot schedule events in the past")
        entry = [self.now + delay, next(self._seq), callback, arg]
        heappush(self._queue, entry)
        return entry

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        return EventHandle(self.post(delay, callback), self)

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute virtual timestamp — the
        hook fault plans use to plant crash/restart events declared in
        absolute time (:mod:`repro.faults`)."""
        if time < self.now:
            raise NetworkError("cannot schedule events in the past")
        return self.schedule(time - self.now, callback)

    def _note_cancelled(self) -> None:
        """Track tombstones; compact the heap once they dominate.

        A cancelled event used to linger until popped, so workloads that
        schedule-and-cancel (timeouts, retransmission timers) grew the heap
        without bound.  Rebuilding costs ``O(live)`` and is amortized free:
        it runs only when more than half the queue is dead.  The heap is
        compacted in place, so a :meth:`run` in progress keeps draining
        the same list.
        """
        self._cancelled += 1
        queue = self._queue
        if self._cancelled * 2 > len(queue):
            queue[:] = [entry for entry in queue if entry[2] is not None]
            heapify(queue)
            self._cancelled = 0
            self.purges += 1

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.  Returns events processed."""
        queue = self._queue
        bound = inf if until is None else until
        limit = inf if max_events is None else max_events
        processed = 0
        while queue and processed < limit:
            entry = queue[0]
            if entry[0] > bound:
                break
            heappop(queue)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            if entry[0] > self.now:
                self.now = entry[0]
            # Mark consumed so a late ``cancel()`` on the handle is a no-op
            # rather than a phantom tombstone in the bookkeeping.
            entry[2] = None
            arg = entry[3]
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            processed += 1
        self.events_processed += processed
        return processed

    @property
    def pending_events(self) -> int:
        return len(self._queue) - self._cancelled

    @property
    def next_event_time(self) -> float | None:
        """Virtual time of the earliest live event, ``None`` when the
        queue holds nothing runnable — what an external driver may
        advance :attr:`now` up to without skipping scheduled work.
        Tombstones at the head are popped on the way."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None

    @property
    def queued_entries(self) -> int:
        """Heap entries including tombstones (for leak diagnostics)."""
        return len(self._queue)
