"""Tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.simulation import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        log = []
        simulator.schedule(3.0, lambda: log.append("c"))
        simulator.schedule(1.0, lambda: log.append("a"))
        simulator.schedule(2.0, lambda: log.append("b"))
        simulator.run()
        assert log == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        simulator = Simulator()
        log = []
        simulator.schedule(1.0, lambda: log.append("first"))
        simulator.schedule(1.0, lambda: log.append("second"))
        simulator.run()
        assert log == ["first", "second"]

    def test_now_advances(self):
        simulator = Simulator()
        times = []
        simulator.schedule(2.5, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [2.5]
        assert simulator.now == 2.5

    def test_nested_scheduling(self):
        simulator = Simulator()
        log = []

        def outer():
            log.append(("outer", simulator.now))
            simulator.schedule(
                1.0, lambda: log.append(("inner", simulator.now))
            )

        simulator.schedule(1.0, outer)
        simulator.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(NetworkError):
            Simulator().schedule(-1.0, lambda: None)


class TestHandles:
    def test_time_and_active_before_and_after_the_event_runs(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        handle = simulator.schedule(2.5, lambda: None)
        assert handle.time == 3.5 and handle.active
        simulator.run()
        assert handle.time == 3.5 and not handle.active

    def test_a_cancelled_handle_is_inactive_and_keeps_its_time(self):
        simulator = Simulator()
        handle = simulator.schedule(4.0, lambda: None)
        handle.cancel()
        assert handle.time == 4.0 and not handle.active
        assert simulator.run() == 0

    def test_a_handle_is_slotted(self):
        handle = Simulator().schedule(1.0, lambda: None)
        assert not hasattr(handle, "__dict__")


class TestNextEventTime:
    def test_empty_queue_has_no_next_event(self):
        assert Simulator().next_event_time is None

    def test_cancelled_head_entries_are_popped(self):
        simulator = Simulator()
        handles = [
            simulator.schedule(float(i + 1), lambda: None) for i in range(5)
        ]
        handles[0].cancel()
        handles[1].cancel()
        assert (simulator.queued_entries, simulator.pending_events) == (5, 3)
        assert simulator.next_event_time == 3.0
        # The two head tombstones left the heap; the books still agree.
        assert (simulator.queued_entries, simulator.pending_events) == (3, 3)
        handles[2].cancel()
        assert simulator.next_event_time == 4.0
        assert (simulator.queued_entries, simulator.pending_events) == (2, 2)
        # A tombstone behind the head stays until it surfaces.
        handles[4].cancel()
        assert simulator.next_event_time == 4.0
        assert (simulator.queued_entries, simulator.pending_events) == (2, 1)
        handles[3].cancel()  # 2 of 2 dead: the purge empties the heap
        assert simulator.next_event_time is None
        assert simulator.queued_entries == simulator.pending_events == 0
        assert simulator.run() == 0

    def test_only_tombstones_left_means_no_next_event(self):
        simulator = Simulator()
        handles = [
            simulator.schedule(float(i + 1), lambda: None) for i in range(4)
        ]
        handles[2].cancel()
        handles[3].cancel()  # 2 of 4: no purge
        assert simulator.run(max_events=2) == 2
        assert (simulator.queued_entries, simulator.pending_events) == (2, 0)
        assert simulator.next_event_time is None
        assert simulator.queued_entries == simulator.pending_events == 0


class TestRunLimits:
    def test_until_bound(self):
        simulator = Simulator()
        log = []
        simulator.schedule(1.0, lambda: log.append(1))
        simulator.schedule(5.0, lambda: log.append(5))
        simulator.run(until=2.0)
        assert log == [1]
        assert simulator.pending_events == 1
        simulator.run()
        assert log == [1, 5]

    def test_max_events(self):
        simulator = Simulator()
        log = []
        for i in range(5):
            simulator.schedule(float(i + 1), lambda i=i: log.append(i))
        processed = simulator.run(max_events=2)
        assert processed == 2
        assert log == [0, 1]

    def test_cancellation(self):
        simulator = Simulator()
        log = []
        handle = simulator.schedule(1.0, lambda: log.append("cancelled"))
        simulator.schedule(2.0, lambda: log.append("kept"))
        handle.cancel()
        simulator.run()
        assert log == ["kept"]

    def test_until_stops_at_a_tombstone_past_the_bound(self):
        simulator = Simulator()
        log = []
        first = simulator.schedule(1.0, lambda: log.append(1))
        simulator.schedule(2.0, lambda: log.append(2))
        simulator.schedule(5.0, lambda: log.append(5))
        first.cancel()
        # The cancelled head lies past ``until``: nothing is popped.
        assert simulator.run(until=0.5) == 0
        assert (simulator.queued_entries, simulator.pending_events) == (3, 2)
        # Up to 3.0 the tombstone is dropped on the way to the live event.
        assert simulator.run(until=3.0) == 1
        assert log == [2] and simulator.now == 2.0
        assert (simulator.queued_entries, simulator.pending_events) == (1, 1)

    def test_max_events_counts_live_events_only(self):
        simulator = Simulator()
        log = []
        handles = [
            simulator.schedule(float(i + 1), lambda i=i: log.append(i))
            for i in range(5)
        ]
        handles[0].cancel()
        handles[1].cancel()
        assert simulator.run(max_events=0) == 0
        assert simulator.queued_entries == 5
        # Both head tombstones are skipped without spending the budget.
        assert simulator.run(max_events=1) == 1
        assert log == [2]
        assert (simulator.queued_entries, simulator.pending_events) == (2, 2)
        assert simulator.run() == 2 and log == [2, 3, 4]

    def test_events_processed_counter(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        assert simulator.events_processed == 2


class TestTombstonePurge:
    """Cancelled events must not accumulate in the heap (regression: they
    used to linger as tombstones until popped)."""

    def test_purge_compacts_the_heap(self):
        simulator = Simulator()
        log = []
        handles = [
            simulator.schedule(float(i + 1), lambda i=i: log.append(i))
            for i in range(100)
        ]
        # Cancel more than half: the heap must shrink to the live events.
        for handle in handles[:60]:
            handle.cancel()
        assert simulator.purges >= 1
        # The purge fired once past the 50% mark (at 51 cancellations),
        # compacting 100 entries down to the 49 then-live events; the last
        # 9 cancellations stay below threshold as tombstones.
        assert simulator.queued_entries == 49
        assert simulator.pending_events == 40
        simulator.run()
        assert log == list(range(60, 100))

    def test_no_purge_below_threshold(self):
        simulator = Simulator()
        handles = [
            simulator.schedule(float(i + 1), lambda: None) for i in range(10)
        ]
        for handle in handles[:4]:
            handle.cancel()
        assert simulator.purges == 0
        assert simulator.queued_entries == 10
        assert simulator.pending_events == 6

    def test_double_cancel_is_idempotent(self):
        simulator = Simulator()
        handle = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert simulator.pending_events == 1
        assert simulator.run() == 1

    def test_cancel_after_execution_is_noop(self):
        simulator = Simulator()
        handle = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run(until=1.5)
        handle.cancel()  # already executed: must not corrupt bookkeeping
        assert simulator.pending_events == 1
        assert simulator.run() == 1

    def test_purge_preserves_order(self):
        simulator = Simulator()
        log = []
        handles = [
            simulator.schedule(float(i + 1), lambda i=i: log.append(i))
            for i in range(50)
        ]
        # Cancel all even-indexed events plus one odd (26 of 50, interleaved
        # with survivors): crosses the >50% threshold mid-stream.
        for i in range(0, 50, 2):
            handles[i].cancel()
        handles[1].cancel()
        assert simulator.purges >= 1
        simulator.run()
        assert log == list(range(3, 50, 2))

    def test_a_purge_inside_run_keeps_the_loop_on_the_compacted_heap(self):
        """A callback that cancels past the 50 % mark compacts the heap
        while ``run`` is draining it: the loop must go on with the
        compacted queue (and what the callback schedules after it), not
        with a stale copy full of tombstones."""
        simulator = Simulator()
        log = []
        handles = [
            simulator.schedule(float(i + 2), lambda i=i: log.append(i))
            for i in range(10)
        ]

        def cancel_most():
            for handle in handles[:6]:
                handle.cancel()
            simulator.schedule(0.5, lambda: log.append("late"))

        simulator.schedule(1.0, cancel_most)
        assert simulator.run() == 6
        assert simulator.purges == 1
        assert log == ["late", 6, 7, 8, 9]
        assert simulator.queued_entries == simulator.pending_events == 0
        assert simulator.run() == 0

    def test_cancel_heavy_workload_bounds_heap(self):
        """Schedule-and-cancel churn (retransmission-timer pattern): the
        heap stays proportional to the live events, not the churn."""
        simulator = Simulator()
        live = [simulator.schedule(1000.0 + i, lambda: None) for i in range(10)]
        for _ in range(1000):
            simulator.schedule(500.0, lambda: None).cancel()
        assert simulator.queued_entries <= 2 * (len(live) + 1)
        assert simulator.pending_events == 10
