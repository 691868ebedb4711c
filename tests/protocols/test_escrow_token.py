"""Tests for the escrow-allowance token and its synchronization collapse."""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgumentError
from repro.objects.erc20 import TokenState
from repro.objects.register import register_array
from repro.protocols.escrow_token import EscrowToken
from repro.protocols.token_from_kat import run_sequential
from repro.runtime.executor import System
from repro.runtime.explorer import ScheduleExplorer


class TestSequentialBehaviour:
    def test_deploy_and_transfer(self):
        token = EscrowToken(TokenState.deploy(3, 10))
        assert run_sequential(token, 0, "transfer", 1, 4) is True
        assert run_sequential(token, 0, "free_balance_of", 0) == 6
        assert run_sequential(token, 0, "free_balance_of", 1) == 4

    def test_allowance_lifecycle(self):
        token = EscrowToken(TokenState.deploy(3, 10))
        assert run_sequential(token, 0, "increase_allowance", 2, 6) is True
        assert run_sequential(token, 0, "allowance", 0, 2) == 6
        # The escrowed amount left the free balance immediately.
        assert run_sequential(token, 0, "free_balance_of", 0) == 4
        # ERC20-style total balance still counts the escrow.
        assert run_sequential(token, 0, "balance_of", 0) == 10
        assert run_sequential(token, 2, "transfer_from", 0, 1, 4) is True
        assert run_sequential(token, 0, "allowance", 0, 2) == 2
        assert run_sequential(token, 0, "free_balance_of", 1) == 4
        assert run_sequential(token, 0, "decrease_allowance", 2, 2) is True
        assert run_sequential(token, 0, "allowance", 0, 2) == 0

    def test_transfer_from_bounded_by_escrow(self):
        token = EscrowToken(TokenState.deploy(3, 10))
        run_sequential(token, 0, "increase_allowance", 1, 3)
        assert run_sequential(token, 1, "transfer_from", 0, 1, 5) is False
        assert run_sequential(token, 1, "transfer_from", 0, 1, 3) is True

    def test_unauthorized_spender_fails(self):
        token = EscrowToken(TokenState.deploy(3, 10))
        run_sequential(token, 0, "increase_allowance", 1, 3)
        # p2 does not co-own the (0,1) escrow.
        assert run_sequential(token, 2, "transfer_from", 0, 2, 1) is False

    def test_escrow_not_spendable_by_owner_transfer(self):
        # The trade-off: escrowed funds leave the owner's direct reach.
        token = EscrowToken(TokenState.deploy(2, 10))
        run_sequential(token, 0, "increase_allowance", 1, 8)
        assert run_sequential(token, 0, "transfer", 1, 5) is False  # free = 2
        assert run_sequential(token, 0, "decrease_allowance", 1, 8) is True
        assert run_sequential(token, 0, "transfer", 1, 5) is True

    def test_supply_counts_escrows(self):
        token = EscrowToken(TokenState.deploy(3, 12))
        run_sequential(token, 0, "increase_allowance", 1, 5)
        assert run_sequential(token, 0, "total_supply") == 12

    def test_initial_allowances_become_escrows(self):
        state = TokenState.create([5, 0], {(0, 1): 4})
        token = EscrowToken(state)
        assert run_sequential(token, 0, "allowance", 0, 1) == 4
        assert run_sequential(token, 1, "transfer_from", 0, 1, 4) is True

    def test_validation(self):
        token = EscrowToken(TokenState.deploy(2, 5))
        with pytest.raises(InvalidArgumentError):
            token.escrow(0, 9)
        with pytest.raises(InvalidArgumentError):
            token.free(5)


class TestAtomicity:
    def test_every_mutation_is_one_base_step(self):
        token = EscrowToken(TokenState.deploy(4, 10))
        for method, args in [
            ("transfer", (1, 2)),
            ("increase_allowance", (1, 2)),
            ("decrease_allowance", (1, 1)),
            ("allowance", (0, 1)),
            ("free_balance_of", (0,)),
            ("total_supply", ()),
        ]:
            generator = getattr(token, method)(0, *args)
            steps = 0
            try:
                call = next(generator)
                while True:
                    steps += 1
                    result = call.target.invoke(0, call.operation)
                    call = generator.send(result)
            except StopIteration:
                pass
            assert steps == 1, f"{method} must be a single atomic step"

    def test_transfer_from_single_step(self):
        token = EscrowToken(TokenState.deploy(3, 10))
        run_sequential(token, 0, "increase_allowance", 1, 5)
        generator = token.transfer_from(1, 0, 2, 3)
        call = next(generator)
        with pytest.raises(StopIteration):
            generator.send(call.target.invoke(1, call.operation))


class TestSynchronizationCollapse:
    """The punchline: escrowing removes the k-way race ERC20 offers."""

    def test_all_spenders_win_independently(self):
        # On ERC20 with U*, at most one of these transfers succeeds; on the
        # escrow token, EVERY spender's transferFrom succeeds — no race.
        token = EscrowToken(TokenState.deploy(4, 9))
        for spender in (1, 2, 3):
            run_sequential(token, 0, "increase_allowance", spender, 3)
        results = [
            run_sequential(token, spender, "transfer_from", 0, spender, 3)
            for spender in (1, 2, 3)
        ]
        assert results == [True, True, True]

    def test_algorithm1_style_race_has_no_unique_winner(self):
        # Run the Algorithm 1 decision pattern over the escrow token: the
        # explorer finds schedules where multiple "winners" see their own
        # allowance at zero, i.e. no consensus — mechanical evidence the
        # escrow token cannot support the k-way construction.
        def factory() -> System:
            token = EscrowToken(
                TokenState.create([0, 0, 0], {(0, 1): 3, (0, 2): 3})
            )
            registers = register_array(3)
            proposals = {1: "b", 2: "c"}

            def propose(pid: int):
                def program():
                    yield registers[pid].write(proposals[pid])
                    yield from token.transfer_from(pid, 0, pid, 3)
                    for j in (1, 2):
                        allowance = yield from token.allowance(pid, 0, j)
                        if allowance == 0:
                            decision = yield registers[j].read()
                            return decision
                    decision = yield registers[0].read()
                    return decision

                return program

            return System(
                programs=[propose(1), propose(2)],
                objects=token.base_objects + registers,
                pids=[1, 2],
            )

        from repro.protocols.base import consensus_checks

        report = ScheduleExplorer(factory).explore(
            checks=[consensus_checks({1: "b", 2: "c"})]
        )
        assert not report.ok, (
            "escrowed allowances must break the unique-winner race"
        )
        assert any("agreement" in str(v) for v in report.violations)

    def test_pairwise_owner_spender_race_still_works(self):
        # The escrow sub-account is 2-shared: owner vs ONE spender can still
        # race (consensus number 2 survives), via decrease_allowance against
        # transfer_from on the same escrow.
        def factory() -> System:
            token = EscrowToken(TokenState.create([0, 0], {(0, 1): 2}))
            registers = register_array(2)
            proposals = {0: "owner", 1: "spender"}

            def propose(pid: int):
                def program():
                    yield registers[pid].write(proposals[pid])
                    if pid == 0:
                        yield from token.decrease_allowance(0, 1, 2)
                    else:
                        yield from token.transfer_from(1, 0, 1, 2)
                    # Winner detection: where did the 2 tokens land?
                    free_spender = yield from token.free_balance_of(pid, 1)
                    if free_spender >= 2:
                        decision = yield registers[1].read()
                        return decision
                    decision = yield registers[0].read()
                    return decision

                return program

            return System(
                programs=[propose(0), propose(1)],
                objects=token.base_objects + registers,
                pids=[0, 1],
            )

        from repro.protocols.base import consensus_checks

        report = ScheduleExplorer(factory).explore(
            checks=[consensus_checks({0: "owner", 1: "spender"})]
        )
        assert report.ok, report.violations[:2]
        assert report.outcomes == {"owner", "spender"}
