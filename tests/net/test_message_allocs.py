"""Allocation guard for the message path — counts, no clock.

Every cluster message and every sync-lane vote goes through
``Network.send`` → the simulator's heap → ``Network._deliver``.  A message
in flight holds one :class:`Message` and one heap entry (the entry list,
its item array, its time and its sequence number) and nothing else: no
per-send closure, no :class:`EventHandle`, no fresh bound method.  A change
that brings one back fails here on a count that repeats exactly rather
than in a noisy throughput row.
"""

from __future__ import annotations

import gc
import tracemalloc

import repro.net.network as network_module
import repro.net.simulation as simulation_module
from repro.net.network import ConstantLatency, Message, Network
from repro.net.node import Node
from repro.net.simulation import EventHandle, Simulator

MESSAGES = 1000
#: Shared by every send: the guard counts the path, not the payload.
PAYLOAD = {"round": 1}


class Sink(Node):
    def __init__(self, node_id: int, network: Network) -> None:
        super().__init__(node_id, network)
        self.received = 0

    def handle_ping(self, message: Message) -> None:
        self.received += 1


def burst(network: Network, count: int) -> None:
    for _ in range(count):
        network.send(0, 1, "ping", PAYLOAD)


def blocks_by_file(before, after) -> dict[str, int]:
    """Blocks allocated on ``network.py`` / ``simulation.py`` lines and
    still live at ``after``, net of ``before``."""
    files = {
        network_module.__file__: "network",
        simulation_module.__file__: "simulation",
    }
    counts = dict.fromkeys(files.values(), 0)
    for stat in after.compare_to(before, "filename"):
        name = files.get(stat.traceback[0].filename)
        if name is not None:
            counts[name] += stat.count_diff
    return counts


def measure() -> tuple[dict[str, int], dict[str, int], Sink]:
    """``(blocks held per message in flight, blocks kept after delivery)``
    per file.  The free lists of floats and lists serve the first
    allocations of a burst without a new block, and which file a reused
    block is billed to depends on the interpreter's history: a burst's
    total moves by a few blocks.  A burst of ``2 n`` sends minus a burst
    of ``n``, rounded per message, cancels that."""
    simulator = Simulator()
    network = Network(simulator, ConstantLatency(1.0))
    Sink(0, network)
    sink = Sink(1, network)
    held: dict[int, dict[str, int]] = {}
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        # Warm up the handler cache, push the counters past the small-int
        # cache and fill the free lists.
        for _ in range(2):
            burst(network, 512)
            simulator.run()
        for count in (MESSAGES, 2 * MESSAGES):
            start = tracemalloc.take_snapshot()
            burst(network, count)
            held[count] = blocks_by_file(start, tracemalloc.take_snapshot())
            simulator.run()
        kept = blocks_by_file(start, tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
        gc.enable()
    per_message = {
        name: round(
            (held[2 * MESSAGES][name] - held[MESSAGES][name]) / MESSAGES
        )
        for name in held[MESSAGES]
    }
    return per_message, kept, sink


def test_a_message_in_flight_holds_one_message_and_one_heap_entry():
    per_message, kept, sink = measure()
    assert sink.received == 2 * 512 + 3 * MESSAGES
    # ``Network.send`` keeps the Message and nothing else: no closure,
    # no cells, no bound method.
    assert per_message["network"] == 1
    # The simulator keeps one heap entry — the list, its item array, its
    # time and its seq — and no handle.
    assert per_message["simulation"] == 4
    # Delivery releases all of it (a leak would keep a block or more per
    # message); at most the free lists refill.
    assert sum(kept.values()) <= MESSAGES // 8


def live_handles() -> int:
    return sum(isinstance(obj, EventHandle) for obj in gc.get_objects())


def test_sends_queue_one_shared_callable_and_no_handle():
    simulator = Simulator()
    network = Network(simulator, ConstantLatency(1.0))
    Sink(0, network)
    Sink(1, network)
    gc.collect()
    handles = live_handles()
    burst(network, 3)
    assert live_handles() == handles
    callbacks = {id(entry[2]) for entry in simulator._queue}
    assert callbacks == {id(network._deliver)}
    assert [type(entry[3]) for entry in simulator._queue] == [Message] * 3


def test_a_message_is_a_slotted_record():
    message = Message(type="ping", src=0, dst=1, payload={"x": 1})
    assert not hasattr(message, "__dict__")
    assert (message.type, message.src, message.dst) == ("ping", 0, 1)
    assert message.payload == {"x": 1}
    assert Message("pong", 2, 3).payload is None
    assert str(message) == "ping 0->1"
