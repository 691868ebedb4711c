"""A team lane is its reference protocol, bit for bit.

:class:`~repro.net.team_lanes.TeamLane` orders a round in a private event
loop; :class:`~repro.net.total_order.TotalOrderNode` is the same
leader-based three-phase protocol over a simulated network.  Given the
lane's seed, a ``k``-replica reference group on
``Network(UniformLatency(0.5, 1.5), seed)`` must deliver every operation
at the leader at the same virtual time, quiesce at the same time and send
the same number of messages, round after round.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    Network,
    Simulator,
    TeamLane,
    TotalOrderNode,
    UniformLatency,
)


class Reference:
    """A ``k``-replica :class:`TotalOrderNode` group on a private network,
    submitting at the leader the way a lane's round does."""

    def __init__(self, k: int, seed: int, max_batch: int) -> None:
        self.network = Network(Simulator(), UniformLatency(0.5, 1.5), seed)
        self.times: list[float] = []
        self.nodes = [
            TotalOrderNode(
                i,
                self.network,
                k,
                deliver=self._deliver if i == 0 else None,
                max_batch=max_batch,
            )
            for i in range(k)
        ]
        self.submitted = 0

    def _deliver(self, _seq: int, txs: list) -> None:
        self.times += [self.network.simulator.now] * len(txs)

    def round(self, count: int) -> tuple[list[float], float, int]:
        """Leader delivery times, makespan and bill of one round."""
        simulator, stats = self.network.simulator, self.network.stats
        started, sent = simulator.now, stats.messages_sent
        self.times = []
        for _ in range(count):
            self.nodes[0].submit(self.submitted)
            self.submitted += 1
        simulator.run()
        assert len(self.times) == count
        return self.times, simulator.now - started, stats.messages_sent - sent


def per_op(deliveries: list[tuple[int, float]]) -> list[float]:
    """Expand a lane's per-proposal ``(end, time)`` to one time per op."""
    times: list[float] = []
    for end, at in deliveries:
        times += [at] * (end - len(times))
    return times


rounds = st.lists(
    st.lists(st.integers(0, 130), min_size=1, max_size=4),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(1, 7),
    max_batch=st.sampled_from([1, 4, 64]),
    rounds=rounds,
)
def test_lane_matches_the_reference_group(seed, k, max_batch, rounds):
    """Every leader delivery time, every round's makespan and bill; the
    batches of a round are submitted back to back on the one lane, and
    each completes at its own last operation's delivery."""
    reference = Reference(k, seed, max_batch)
    lane = TeamLane(range(k), seed=seed, max_batch=max_batch)
    twin = TeamLane(range(k), seed=seed, max_batch=max_batch)
    clock = 0.0
    for sizes in rounds:
        batches = [list(range(size)) for size in sizes]
        times, makespan, bill = reference.round(sum(sizes))
        before = lane.messages
        deliveries, last = lane.run_round(sum(sizes), clock)
        assert per_op(deliveries) == times
        assert last - clock == makespan
        assert lane.messages - before == bill
        orders, twin_last = twin.order_batches(batches, clock)
        assert twin_last == last
        # The round's bill is charged once, to its first batch.
        messages = [order.messages for order in orders]
        assert messages == [bill] + [0] * (len(sizes) - 1)
        end = 0
        for size, order in zip(sizes, orders):
            end += size
            want = times[end - 1] - clock if size else 0.0
            assert order.completed == want
        clock = last


def test_a_standalone_lane_is_the_reference_across_rounds():
    """:meth:`TeamLane.order` on the lane's own clock: the pinned
    four-replica, seed-0 rounds, round for round."""
    reference = Reference(4, 0, 64)
    lane = TeamLane(range(4), seed=0)
    for count in (1, 5, 70, 3):
        times, makespan, bill = reference.round(count)
        started = lane.clock
        result = lane.order(list(range(count)))
        assert result.makespan == makespan
        assert result.messages == bill
        assert result.orders[0].completed == times[-1] - started
    assert (makespan, bill) == (5.9505912842994455, 75)


def test_retained_state_does_not_grow_with_rounds():
    """Between rounds a lane holds a seeded RNG and counters — the same
    attributes, each of the same size, after 3 rounds or 60.  The
    reference group keeps every slot it ever saw."""

    def held(lane: TeamLane) -> dict[str, object]:
        return {
            name: len(value) if hasattr(value, "__len__") else type(value)
            for name, value in vars(lane).items()
        }

    lane = TeamLane(range(4), seed=1)
    reference = Reference(4, 1, 64)
    for count in (3, 9, 2):
        lane.order(list(range(count)))
        reference.round(count)
    early, early_slots = held(lane), len(reference.nodes[1]._slots)
    for _ in range(57):
        lane.order(list(range(9)))
        reference.round(9)
    assert held(lane) == early
    assert lane.slots == len(reference.nodes[1]._slots) > early_slots
