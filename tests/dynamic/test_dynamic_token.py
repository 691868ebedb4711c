"""Tests for the §7 dynamic-synchronization token network."""

from __future__ import annotations

import random

import pytest

from repro.dynamic.dynamic_token import (
    DynamicTokenNode,
    assert_converged,
    measure_dynamic,
)
from repro.errors import ProtocolError
from repro.net.network import ConstantLatency, Network, UniformLatency
from repro.net.simulation import Simulator


def make_network(n: int = 4, supply: int = 100, seed: int = 0, track=False):
    simulator = Simulator()
    network = Network(simulator, UniformLatency(0.5, 1.5), seed=seed)
    nodes = [
        DynamicTokenNode(i, network, n, supply=supply, track_groups=track)
        for i in range(n)
    ]
    return simulator, network, nodes


class TestOwnerOperations:
    def test_transfer_replicated_everywhere(self):
        simulator, _, nodes = make_network()
        record = nodes[0].submit_transfer(1, 30)
        simulator.run()
        assert record.response is True
        for node in nodes:
            assert node.state.balances == [70, 30, 0, 0]

    def test_invalid_transfer_rejected_locally(self):
        simulator, _, nodes = make_network()
        record = nodes[1].submit_transfer(0, 5)  # account 1 is empty
        simulator.run()
        assert record.response is False
        assert record.latency == 0.0
        for node in nodes:
            assert node.state.balances == [100, 0, 0, 0]

    def test_approve_replicated(self):
        simulator, _, nodes = make_network()
        nodes[0].submit_approve(2, 40)
        simulator.run()
        for node in nodes:
            assert node.state.allowances[0][2] == 40

    def test_per_account_fifo_order(self):
        simulator, _, nodes = make_network(seed=11)
        nodes[0].submit_transfer(1, 60)
        nodes[0].submit_transfer(2, 60)  # must fail: only 40 left
        simulator.run()
        for node in nodes:
            assert node.state.balances == [40, 60, 0, 0]


class TestTransferFrom:
    def test_group_round_then_apply(self):
        simulator, network, nodes = make_network()
        nodes[0].submit_approve(2, 40)
        simulator.run()
        record = nodes[2].submit_transfer_from(0, 3, 25)
        simulator.run()
        assert record.response is True
        for node in nodes:
            assert node.state.balances == [75, 0, 0, 25]
            assert node.state.allowances[0][2] == 15
        assert network.stats.by_type.get("group_propose", 0) >= 1
        assert network.stats.by_type.get("group_ack", 0) >= 1

    def test_unapproved_spender_rejected(self):
        simulator, _, nodes = make_network()
        record = nodes[2].submit_transfer_from(0, 3, 25)
        simulator.run()
        assert record.response is False
        for node in nodes:
            assert node.state.balances == [100, 0, 0, 0]

    def test_double_spend_prevented(self):
        # Two spenders with combined allowances exceeding the balance: the
        # owner's sequencing admits only what the balance covers.
        simulator, _, nodes = make_network(supply=10)
        nodes[0].submit_approve(1, 10)
        nodes[0].submit_approve(2, 10)
        simulator.run()
        record_a = nodes[1].submit_transfer_from(0, 1, 10)
        record_b = nodes[2].submit_transfer_from(0, 2, 10)
        simulator.run()
        assert [record_a.response, record_b.response].count(True) == 1
        assert_converged(nodes)
        assert sum(nodes[0].state.balances) == 10

    def test_owner_spending_own_allowance_path(self):
        simulator, _, nodes = make_network()
        nodes[0].submit_approve(0, 10)
        simulator.run()
        record = nodes[0].submit_transfer_from(0, 1, 5)
        simulator.run()
        assert record.response is True
        assert nodes[2].state.balances == [95, 5, 0, 0]


class TestRejectPath:
    """A transferFrom the owner refuses: at its request, or when the
    group round ends and the spend no longer fits."""

    @staticmethod
    def make_constant_network(n: int = 4, supply: int = 100):
        simulator = Simulator()
        network = Network(simulator, ConstantLatency(1.0), seed=0)
        nodes = [
            DynamicTokenNode(i, network, n, supply=supply) for i in range(n)
        ]
        return simulator, network, nodes

    def test_a_remote_reject_travels_back_as_one_message(self):
        simulator, network, nodes = self.make_constant_network()
        record = nodes[2].submit_transfer_from(0, 3, 5)
        simulator.run()
        assert record.response is False
        # One hop to the owner, one back.
        assert record.latency == 2.0
        assert network.stats.by_type == {"tf_request": 1, "tf_reject": 1}

    def test_an_owner_local_reject_sends_nothing(self):
        simulator, network, nodes = self.make_constant_network()
        record = nodes[0].submit_transfer_from(0, 1, 5)  # no self-approval
        simulator.run()
        assert record.response is False
        assert record.latency == 0.0
        assert network.stats.messages_sent == 0

    def test_a_spend_over_the_allowance_is_rejected(self):
        simulator, _, nodes = self.make_constant_network()
        nodes[0].submit_approve(2, 10)
        simulator.run()
        record = nodes[2].submit_transfer_from(0, 3, 11)
        simulator.run()
        assert record.response is False
        for node in nodes:
            assert node.state.balances == [100, 0, 0, 0]
            assert node.state.allowances[0][2] == 10

    def test_the_owner_revalidates_when_the_round_ends(self):
        # The spend is valid when its group round starts; the owner's own
        # transfer, sequenced while the round awaits its ack, empties the
        # account, so the round ends in a reject.
        simulator, network, nodes = self.make_constant_network()
        nodes[0].submit_approve(2, 100)
        simulator.run()
        record = nodes[2].submit_transfer_from(0, 3, 100)
        simulator.run(until=simulator.now + 1.5)  # the round has started
        own = nodes[0].submit_transfer(1, 100)
        simulator.run()
        assert network.stats.by_type["group_ack"] == 1
        assert (own.response, record.response) == (True, False)
        assert_converged(nodes)
        assert nodes[3].state.balances == [0, 100, 0, 0]


class TestConvergence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_traffic_converges(self, seed):
        simulator, _, nodes = make_network(n=5, supply=200, seed=seed)
        rng = random.Random(seed)
        for i in range(1, 5):
            nodes[0].submit_transfer(i, 30)
        simulator.run()
        for i in range(5):
            nodes[i].submit_approve((i + 1) % 5, 15)
        simulator.run()
        for _ in range(40):
            actor = rng.randrange(5)
            if rng.random() < 0.35:
                source = (actor - 1) % 5
                nodes[actor].submit_transfer_from(
                    source, rng.randrange(5), rng.randint(1, 4)
                )
            else:
                nodes[actor].submit_transfer(
                    rng.randrange(5), rng.randint(1, 4)
                )
        simulator.run()
        assert_converged(nodes)
        assert sum(nodes[0].state.balances) == 200

    def test_divergence_detection_works(self):
        simulator, _, nodes = make_network()
        nodes[0].state.balances[0] += 1  # corrupt one replica
        with pytest.raises(ProtocolError):
            assert_converged(nodes)


class TestMeasurement:
    def test_stats(self):
        simulator, _, nodes = make_network(seed=3)
        nodes[0].submit_approve(1, 50)
        simulator.run()
        for i in range(5):
            nodes[0].submit_transfer(1, 2)
        nodes[1].submit_transfer_from(0, 2, 3)
        simulator.run()
        stats = measure_dynamic(nodes)
        assert stats.operations == 7
        assert stats.accepted == 7
        assert stats.rejected == 0
        assert stats.mean_latency > 0
        assert stats.messages_per_op > 0

    def test_group_tracking(self):
        simulator, _, nodes = make_network(track=True)
        nodes[0].submit_approve(1, 50)
        nodes[0].submit_approve(2, 50)
        simulator.run()
        tracker = nodes[3].tracker
        assert tracker is not None
        assert tracker.max_level_seen() == 3


class TestScalabilityShape:
    def test_owner_traffic_cost_independent_of_group_size(self):
        # transfer costs the same regardless of how many spenders exist.
        def messages_for_transfer(approvals: int) -> float:
            simulator, network, nodes = make_network(n=4, seed=1)
            for spender in range(1, approvals + 1):
                nodes[0].submit_approve(spender, 10)
            simulator.run()
            before = network.stats.messages_sent
            nodes[0].submit_transfer(1, 1)
            simulator.run()
            return network.stats.messages_sent - before

        assert messages_for_transfer(0) == messages_for_transfer(3)

    def test_transfer_from_cost_grows_with_group(self):
        def messages_for_tf(approvals: int) -> float:
            simulator, network, nodes = make_network(n=5, seed=1)
            for spender in range(1, approvals + 1):
                nodes[0].submit_approve(spender, 10)
            simulator.run()
            before = network.stats.messages_sent
            nodes[1].submit_transfer_from(0, 2, 1)
            simulator.run()
            return network.stats.messages_sent - before

        assert messages_for_tf(3) > messages_for_tf(1)
