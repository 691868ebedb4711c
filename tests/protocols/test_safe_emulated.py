"""Tests for the single-writer SafeEmulatedToken (Reproduction note 2's fix)."""

from __future__ import annotations

import random

import pytest

from repro.errors import InvalidArgumentError
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.objects.restricted import restrict_to_potential_qk
from repro.protocols.token_from_kat import (
    SafeEmulatedToken,
    run_sequential,
    workload_program,
)
from repro.runtime.executor import System
from repro.runtime.explorer import ScheduleExplorer
from repro.spec.history import History
from repro.spec.linearizability import check_linearizability
from repro.spec.operation import Operation
from tests.protocols.test_token_from_kat import random_operation

METHODS = {
    "transfer": "transfer",
    "transferFrom": "transfer_from",
    "increaseAllowance": "increase_allowance",
    "decreaseAllowance": "decrease_allowance",
    "balanceOf": "balance_of",
    "allowance": "allowance",
    "totalSupply": "total_supply",
}


class TestSequentialBehaviour:
    def test_increase_then_spend(self):
        emulated = SafeEmulatedToken(TokenState.deploy(3, 10), k=2)
        assert run_sequential(emulated, 0, "increase_allowance", 1, 6) is True
        assert run_sequential(emulated, 1, "transfer_from", 0, 2, 4) is True
        assert run_sequential(emulated, 0, "allowance", 0, 1) == 2
        assert run_sequential(emulated, 0, "balance_of", 2) == 4

    def test_decrease_allowance(self):
        emulated = SafeEmulatedToken(TokenState.deploy(2, 5), k=2)
        run_sequential(emulated, 0, "increase_allowance", 1, 5)
        assert run_sequential(emulated, 0, "decrease_allowance", 1, 3) is True
        assert run_sequential(emulated, 0, "allowance", 0, 1) == 2
        assert run_sequential(emulated, 0, "decrease_allowance", 1, 5) is False

    def test_qk_guard(self):
        emulated = SafeEmulatedToken(TokenState.deploy(4, 10), k=2)
        assert run_sequential(emulated, 0, "increase_allowance", 1, 2) is True
        assert run_sequential(emulated, 0, "increase_allowance", 2, 2) is False

    def test_failed_inner_transfer_restores_reservation(self):
        # Allowance 5, balance 3: the reservation must be rolled back.
        state = TokenState.create([0, 3, 0], {(1, 2): 5})
        emulated = SafeEmulatedToken(state, k=2)
        assert run_sequential(emulated, 2, "transfer_from", 1, 2, 5) is False
        assert run_sequential(emulated, 2, "allowance", 1, 2) == 5

    def test_rejects_states_beyond_k(self):
        state = TokenState.create([5, 0, 0], {(0, 1): 1, (0, 2): 1})
        with pytest.raises(InvalidArgumentError):
            SafeEmulatedToken(state, k=2)

    @pytest.mark.parametrize("seed", range(4))
    def test_differential_vs_extension_spec(self, seed):
        rng = random.Random(seed)
        n, k = 3, 2
        spec = restrict_to_potential_qk(
            ERC20TokenType(n, with_extensions=True), k
        )
        spec_state = TokenState.deploy(n, 10)
        emulated = SafeEmulatedToken(spec_state, k=k)
        for _ in range(200):
            pid, name, args = random_operation(rng, n, METHODS, 4)
            spec_state, expected = spec.apply(
                spec_state, pid, Operation(name, args)
            )
            actual = run_sequential(emulated, pid, METHODS[name], *args)
            assert actual == expected, f"{name}{args} by p{pid}"


class TestConcurrentLinearizability:
    @staticmethod
    def _factory(initial: TokenState, k: int, steps_by_pid: dict):
        def build() -> System:
            history = History()
            emulated = SafeEmulatedToken(initial, k=k, history=history)
            pids = sorted(steps_by_pid)
            programs = [
                (lambda p=pid: workload_program(emulated, p, steps_by_pid[p]))
                for pid in pids
            ]
            return System(
                programs=programs,
                objects=emulated.base_objects,
                meta={"history": history, "emulated": emulated},
                pids=pids,
            )

        return build

    def test_allowance_race_now_linearizable(self):
        # The exact scenario that breaks the paper's Algorithm 2 (multi-writer
        # allowance cell) is linearizable with single-writer counters.
        initial = TokenState.create([10, 0], {(0, 1): 5})
        spec = restrict_to_potential_qk(
            ERC20TokenType(2, with_extensions=True), 2
        )
        steps = {
            0: [("increase_allowance", (1, 10)), ("allowance", (0, 1))],
            1: [("transfer_from", (0, 1, 5))],
        }

        def check(runners, system, schedule):
            history = system.meta["history"]
            result = check_linearizability(
                history.project(system.meta["emulated"].name),
                spec,
                initial_state=initial,
            )
            if not result.is_linearizable:
                return ["non-linearizable: " + "; ".join(map(str, history))]
            return []

        report = ScheduleExplorer(self._factory(initial, 2, steps)).explore(
            checks=[check]
        )
        assert report.ok, report.violations[:1]

    def test_spender_race_linearizable(self):
        initial = TokenState.create([5, 0, 0], {(0, 1): 5, (0, 2): 5})
        spec = restrict_to_potential_qk(
            ERC20TokenType(3, with_extensions=True), 3
        )
        steps = {
            1: [("transfer_from", (0, 1, 5))],
            2: [("transfer_from", (0, 2, 5))],
        }

        def check(runners, system, schedule):
            history = system.meta["history"]
            result = check_linearizability(
                history.project(system.meta["emulated"].name),
                spec,
                initial_state=initial,
            )
            if not result.is_linearizable:
                return ["non-linearizable"]
            return []

        report = ScheduleExplorer(self._factory(initial, 3, steps)).explore(
            checks=[check]
        )
        assert report.ok, report.violations[:1]
