"""Tests for the simulated network."""

from __future__ import annotations

import random

import pytest

from repro.errors import NetworkError
from repro.net.network import (
    ConstantLatency,
    Message,
    Network,
    UniformLatency,
)
from repro.net.node import Node
from repro.net.simulation import Simulator


class Recorder(Node):
    """A node that logs everything it receives."""

    def __init__(self, node_id: int, network: Network) -> None:
        super().__init__(node_id, network)
        self.received: list[tuple[float, Message]] = []

    def handle_ping(self, message: Message) -> None:
        self.received.append((self.now, message))

    def handle_pong(self, message: Message) -> None:
        self.received.append((self.now, message))


def make_net(num_nodes: int = 3, latency=None, seed: int = 0):
    simulator = Simulator()
    network = Network(simulator, latency or ConstantLatency(1.0), seed=seed)
    nodes = [Recorder(i, network) for i in range(num_nodes)]
    return simulator, network, nodes


class TestDelivery:
    def test_send_delivers_after_latency(self):
        simulator, network, nodes = make_net()
        network.send(0, 1, "ping", {"x": 1})
        simulator.run()
        assert len(nodes[1].received) == 1
        time, message = nodes[1].received[0]
        assert time == 1.0
        assert message.payload == {"x": 1}

    def test_self_send_is_immediate(self):
        simulator, network, nodes = make_net()
        network.send(0, 0, "ping")
        simulator.run()
        assert nodes[0].received[0][0] == 0.0

    def test_broadcast_reaches_everyone(self):
        simulator, network, nodes = make_net(4)
        network.broadcast(2, "ping")
        simulator.run()
        assert all(len(node.received) == 1 for node in nodes)

    def test_broadcast_reaches_late_registrations_in_id_order(self):
        simulator = Simulator()
        network = Network(simulator, ConstantLatency(1.0))
        log: list[tuple[int, int]] = []

        class Logger(Node):
            def handle_ping(self, message: Message) -> None:
                log.append((message.payload, self.node_id))

        Logger(3, network)
        Logger(1, network)
        network.broadcast(1, "ping", 0)
        simulator.run()
        Logger(2, network)
        Logger(0, network)
        network.broadcast(0, "ping", 1)
        simulator.run()
        # Sends go out in ascending id order; with one latency the sender's
        # own copy (delay 0) leads and the rest arrive in send order.
        assert log == [(0, 1), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]
        assert network.node_ids == [0, 1, 2, 3]

    def test_unknown_destination_raises(self):
        _, network, _ = make_net(2)
        with pytest.raises(NetworkError):
            network.send(0, 9, "ping")

    def test_unknown_handler_raises(self):
        simulator, network, nodes = make_net(2)
        network.send(0, 1, "mystery")
        with pytest.raises(NetworkError):
            simulator.run()

    def test_a_message_renders_its_route(self):
        simulator, network, nodes = make_net(2)
        network.send(0, 1, "ping")
        simulator.run()
        assert str(nodes[1].received[0][1]) == "ping 0->1"

    def test_duplicate_registration_rejected(self):
        simulator = Simulator()
        network = Network(simulator)
        Recorder(0, network)
        with pytest.raises(NetworkError):
            Recorder(0, network)


class TestStats:
    def test_counts(self):
        simulator, network, nodes = make_net(3)
        network.broadcast(0, "ping")
        network.send(1, 2, "pong")
        simulator.run()
        assert network.stats.messages_sent == 4
        assert network.stats.messages_delivered == 4
        assert network.stats.by_type == {"ping": 3, "pong": 1}


class TestPartitions:
    def test_cross_partition_messages_dropped(self):
        simulator, network, nodes = make_net(4)
        network.partition({0, 1}, {2, 3})
        network.send(0, 2, "ping")
        network.send(0, 1, "ping")
        simulator.run()
        assert len(nodes[2].received) == 0
        assert len(nodes[1].received) == 1
        assert network.stats.messages_dropped == 1

    def test_heal_restores_connectivity(self):
        simulator, network, nodes = make_net(4)
        network.partition({0, 1}, {2, 3})
        network.heal()
        network.send(0, 2, "ping")
        simulator.run()
        assert len(nodes[2].received) == 1

    def test_a_broadcast_loses_only_its_crossing_legs(self):
        simulator, network, nodes = make_net(4)
        network.partition({0, 1}, {2, 3})
        network.broadcast(0, "ping")
        simulator.run()
        assert [len(node.received) for node in nodes] == [1, 1, 0, 0]
        assert network.stats.messages_dropped == 2

    def test_sends_without_a_partition_never_consult_it(self, monkeypatch):
        simulator, network, nodes = make_net(3)

        def consulted(self, src, dst):
            raise AssertionError("no partition is installed")

        monkeypatch.setattr(Network, "_crosses_partition", consulted)
        network.send(0, 1, "ping")
        network.broadcast(2, "pong")
        network.partition({0, 1}, {2})
        network.heal()
        network.send(1, 2, "ping")
        simulator.run()
        assert [len(node.received) for node in nodes] == [1, 2, 2]
        assert network.stats.messages_dropped == 0


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(2.5)
        assert model.sample(0, 1, random.Random(0)) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(NetworkError):
            ConstantLatency(-1)

    def test_uniform_within_bounds(self):
        model = UniformLatency(0.5, 1.5)
        rng = random.Random(1)
        for _ in range(100):
            assert 0.5 <= model.sample(0, 1, rng) <= 1.5

    def test_uniform_validates(self):
        with pytest.raises(NetworkError):
            UniformLatency(2.0, 1.0)

    def test_determinism_per_seed(self):
        def run(seed):
            simulator, network, nodes = make_net(
                3, UniformLatency(0.5, 1.5), seed=seed
            )
            network.broadcast(0, "ping")
            simulator.run()
            return [(n.node_id, t) for n in nodes for t, _ in n.received]

        assert run(7) == run(7)
        assert run(7) != run(8)
