"""Cross-module integration tests: the paper's storyline end to end."""

from __future__ import annotations

import random

import pytest

from repro.analysis.hierarchy import token_consensus_number
from repro.analysis.partition import synchronization_level
from repro.analysis.reachability import escalation_plan, level_trajectory
from repro.dynamic.dynamic_token import (
    DynamicTokenNode,
    assert_converged,
    measure_dynamic,
)
from repro.ledger.blockchain import build_ledger, measure_ledger
from repro.net.network import Network, UniformLatency
from repro.net.simulation import Simulator
from repro.objects.erc20 import ERC20Token, ERC20TokenType
from repro.protocols.base import consensus_checks
from repro.protocols.token_consensus import TokenConsensus, algorithm1_system
from repro.runtime.executor import System, run_system
from repro.runtime.explorer import ScheduleExplorer
from repro.workloads.generators import (
    TokenWorkloadGenerator,
    example1_trace,
)

pytestmark = pytest.mark.integration


class TestPaperStoryline:
    """From deployment to consensus: the full §5 narrative in one test."""

    def test_deploy_escalate_solve_consensus(self):
        n, k = 5, 4
        # 1. Deploy: consensus number 1.
        token = ERC20Token(n, total_supply=k)
        assert token_consensus_number(token.state) == 1

        # 2. Escalate: the owner approves k-1 spenders (not wait-free: every
        #    step must succeed).
        for pid, operation in escalation_plan(n, k):
            assert token.invoke(pid, operation) is True
        assert token_consensus_number(token.state) == k

        # 3. Solve consensus among the k enabled spenders using the SAME
        #    shared token object (Algorithm 1).
        protocol = TokenConsensus(token, account=0)
        proposals = {pid: f"value-{pid}" for pid in protocol.participants}
        programs = [
            (lambda p=pid: protocol.propose(p, proposals[p]))
            for pid in sorted(protocol.participants)
        ]
        system = System(
            programs=programs,
            objects=[token, *protocol.registers],
            pids=sorted(protocol.participants),
        )
        result = run_system(system)
        assert len(set(result.decisions.values())) == 1

        # 4. The race consumed the synchronization state: the level dropped.
        assert synchronization_level(token.state) < k

    def test_consensus_number_trajectory_on_random_workload(self):
        token_type = ERC20TokenType(4, total_supply=20)
        items = TokenWorkloadGenerator(4, seed=13).generate(150)
        trajectory = level_trajectory(
            token_type, [(i.pid, i.operation) for i in items]
        )
        levels = [level for level, _ in trajectory]
        assert min(levels) >= 1
        assert max(levels) <= 4
        # The trajectory must actually move (dynamic consensus number).
        assert len(set(levels)) > 1


class TestExampleOneEverywhere:
    """Example 1 executed on every stack layer must agree."""

    def test_sequential_vs_ledger(self):
        trace = example1_trace()
        token_type = ERC20TokenType(3, total_supply=10)
        sequential_state, _ = token_type.run(
            [(i.pid, i.operation) for i in trace]
        )

        simulator = Simulator()
        network = Network(simulator, UniformLatency(0.5, 1.5), seed=21)
        nodes = build_ledger(network, 3, ERC20TokenType(3, total_supply=10))
        for item in trace:
            nodes[item.pid].submit_operation(item.pid, item.operation)
            simulator.run()  # sequential submission preserves intent order
        assert nodes[0].token_state == sequential_state
        assert nodes[1].token_state == sequential_state

    def test_sequential_vs_dynamic_network(self):
        simulator = Simulator()
        network = Network(simulator, UniformLatency(0.5, 1.5), seed=22)
        nodes = [DynamicTokenNode(i, network, 3, supply=10) for i in range(3)]
        nodes[0].submit_transfer(1, 3)
        simulator.run()
        nodes[1].submit_approve(2, 5)
        simulator.run()
        r3 = nodes[2].submit_transfer_from(1, 2, 5)
        simulator.run()
        r4 = nodes[2].submit_transfer_from(1, 0, 1)
        simulator.run()
        assert r3.response is False  # Bob's balance is only 3
        assert r4.response is True
        assert_converged(nodes)
        assert nodes[0].state.balances == [8, 2, 0]
        assert nodes[0].state.allowances[1][2] == 4


class TestBaselineComparison:
    """The E8 shape on a small instance: dynamic beats global ordering for
    owner-only traffic."""

    def test_owner_traffic_latency_advantage(self):
        n, ops = 4, 30
        rng = random.Random(3)
        traffic = [
            (rng.randrange(n), rng.randrange(n), rng.randint(0, 2))
            for _ in range(ops)
        ]

        # Dynamic network.
        simulator_d = Simulator()
        network_d = Network(simulator_d, UniformLatency(0.5, 1.5), seed=9)
        dyn_nodes = [
            DynamicTokenNode(i, network_d, n, supply=1000) for i in range(n)
        ]
        for actor, dest, value in traffic:
            dyn_nodes[actor].submit_transfer(dest, value)
        simulator_d.run()
        assert_converged(dyn_nodes)
        dyn_stats = measure_dynamic(dyn_nodes)

        # Total-order ledger, unbatched (per-op consensus).
        simulator_l = Simulator()
        network_l = Network(simulator_l, UniformLatency(0.5, 1.5), seed=9)
        ledger_nodes = build_ledger(
            network_l, n, ERC20TokenType(n, total_supply=1000), max_batch=1
        )
        submissions = {}
        from repro.spec.operation import Operation

        for actor, dest, value in traffic:
            tx = ledger_nodes[actor].submit_operation(
                actor, Operation("transfer", (dest, value))
            )
            submissions[tx] = simulator_l.now
        simulator_l.run()
        ledger_stats = measure_ledger(ledger_nodes, submissions)

        # All ops hit the single sequencer back-to-back: queueing makes the
        # ledger's latency grow with contention, while the dynamic network
        # processes accounts in parallel.
        assert dyn_stats.mean_latency < ledger_stats.mean_latency


class TestExplorerOnEmulatedStack:
    def test_algorithm1_requires_an_atomic_token(self):
        """Reproduction note 5 (README.md): Algorithm 1 composed over
        Algorithm 2's *emulated* token is NOT correct.

        The emulated ``transferFrom`` spans two base objects (the allowance
        register and the k-AT balance); between the two steps a concurrent
        owner can observe the balance effect without the allowance effect (or
        the register reservation without the balance effect), so the
        emulation admits non-linearizable histories and Algorithm 1's
        winner-detection scan misfires.  This is exactly why Theorem 2 takes
        ``T_q`` as an *atomic base object*: consensus numbers are about the
        object, not about implementations of it (Herlihy's hierarchy is not
        robust under composition of implementations).

        The explorer mechanically exhibits the disagreement.
        """
        from repro.objects.erc20 import TokenState
        from repro.protocols.token_from_kat import EmulatedToken
        from repro.objects.register import register_array

        initial = TokenState.create([2, 0, 0], {(0, 1): 2})
        proposals = {0: "a", 1: "b"}

        def factory() -> System:
            emulated = EmulatedToken(initial, k=2, variant="corrected")
            registers = register_array(2)

            def propose(pid: int, index: int):
                def program():
                    yield registers[index].write(proposals[pid])
                    if pid == 0:
                        yield from emulated.transfer(0, 2, 2)
                    else:
                        yield from emulated.transfer_from(1, 0, 2, 2)
                    allowance = yield from emulated.allowance(pid, 0, 1)
                    if allowance == 0:
                        decision = yield registers[1].read()
                        return decision
                    decision = yield registers[0].read()
                    return decision

                return program

            return System(
                programs=[propose(0, 0), propose(1, 1)],
                objects=emulated.base_objects + registers,
                meta={"proposals": proposals},
            )

        report = ScheduleExplorer(factory).explore(
            checks=[consensus_checks(proposals)]
        )
        assert not report.ok, (
            "expected the composition to fail: the emulated token is not an "
            "atomic base object"
        )
        assert any("agreement" in str(v) for v in report.violations)

    def test_algorithm1_on_atomic_token_same_configuration(self):
        """The control: the identical configuration with the token as a true
        atomic base object is exhaustively correct (Theorem 2)."""
        from repro.objects.erc20 import TokenState

        initial = TokenState.create([2, 0, 0], {(0, 1): 2})
        proposals = {0: "a", 1: "b"}
        factory = lambda: algorithm1_system(proposals, state=initial)
        report = ScheduleExplorer(factory).explore(
            checks=[consensus_checks(proposals)]
        )
        assert report.ok
        assert report.outcomes == {"a", "b"}
