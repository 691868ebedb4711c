"""Tests for Algorithm 2 (Theorem 4): the token emulation from k-AT.

Covers: sequential equivalence with the restricted specification (corrected
variant), the literal variant's quirks (guard over-rejection, allowance leak,
non-atomic supply), the Q_k confinement invariant, and — via exhaustive
exploration plus the linearizability checker — the multi-writer
approve/transferFrom race (README.md, Reproduction note 2).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.spenders import potential_level
from repro.errors import InvalidArgumentError
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.objects.restricted import restrict_to_potential_qk
from repro.protocols.token_from_kat import (
    EmulatedToken,
    run_sequential,
    workload_program,
)
from repro.runtime.executor import System
from repro.runtime.explorer import ScheduleExplorer
from repro.spec.linearizability import check_linearizability
from repro.spec.operation import Operation

METHODS = {
    "transfer": "transfer",
    "transferFrom": "transfer_from",
    "approve": "approve",
    "balanceOf": "balance_of",
    "allowance": "allowance",
    "totalSupply": "total_supply",
}


def spec_and_emulation(n: int, k: int, supply: int = 12, variant: str = "corrected"):
    state = TokenState.deploy(n, supply)
    spec = restrict_to_potential_qk(ERC20TokenType(n), k)
    emulated = EmulatedToken(state, k=k, variant=variant)
    return spec, state, emulated


class TestConstruction:
    def test_rejects_states_beyond_k(self):
        state = TokenState.create([5, 0, 0], {(0, 1): 1, (0, 2): 1})
        with pytest.raises(InvalidArgumentError):
            EmulatedToken(state, k=2)

    def test_accepts_states_within_k(self):
        state = TokenState.create([5, 0, 0], {(0, 1): 1})
        emulated = EmulatedToken(state, k=2)
        assert emulated.kat.state[0].balances == (5, 0, 0)

    def test_variant_validated(self):
        with pytest.raises(InvalidArgumentError):
            EmulatedToken(TokenState.deploy(2, 5), k=1, variant="bogus")

    def test_base_objects_enumerated(self):
        emulated = EmulatedToken(TokenState.deploy(2, 5), k=1)
        # 1 kat + 2x2 allowance registers.
        assert len(emulated.base_objects) == 5


class TestSequentialEquivalence:
    """Corrected variant ≡ restricted Definition 3, sequentially."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_workloads(self, seed):
        rng = random.Random(seed)
        n = rng.choice([3, 4])
        k = rng.choice([2, 3])
        spec, spec_state, emulated = spec_and_emulation(n, k)
        for _ in range(250):
            pid = rng.randrange(n)
            name = rng.choice(list(METHODS))
            if name == "transfer":
                args = (rng.randrange(n), rng.randint(0, 5))
            elif name == "transferFrom":
                args = (rng.randrange(n), rng.randrange(n), rng.randint(0, 5))
            elif name == "approve":
                args = (rng.randrange(n), rng.randint(0, 5))
            elif name == "balanceOf":
                args = (rng.randrange(n),)
            elif name == "allowance":
                args = (rng.randrange(n), rng.randrange(n))
            else:
                args = ()
            spec_state, expected = spec.apply(
                spec_state, pid, Operation(name, args)
            )
            actual = run_sequential(emulated, pid, METHODS[name], *args)
            assert actual == expected, (
                f"divergence on {name}{args} by p{pid}: "
                f"spec={expected!r} emulation={actual!r}"
            )

    def test_example1_through_emulation(self):
        # The paper's Example 1 executed on the emulated object.
        _, _, emulated = spec_and_emulation(3, 2, supply=10)
        assert run_sequential(emulated, 0, "transfer", 1, 3) is True
        assert run_sequential(emulated, 1, "approve", 2, 5) is True
        assert run_sequential(emulated, 2, "transfer_from", 1, 2, 5) is False
        assert run_sequential(emulated, 2, "transfer_from", 1, 0, 1) is True
        assert run_sequential(emulated, 0, "balance_of", 0) == 8
        assert run_sequential(emulated, 0, "balance_of", 1) == 2
        assert run_sequential(emulated, 0, "allowance", 1, 2) == 4


class TestQkConfinement:
    def test_approve_beyond_k_rejected(self):
        _, _, emulated = spec_and_emulation(4, 2)
        assert run_sequential(emulated, 0, "approve", 1, 3) is True
        assert run_sequential(emulated, 0, "approve", 2, 3) is False

    def test_revocation_reopens_slot(self):
        _, _, emulated = spec_and_emulation(4, 2)
        run_sequential(emulated, 0, "approve", 1, 3)
        assert run_sequential(emulated, 0, "approve", 1, 0) is True
        assert run_sequential(emulated, 0, "approve", 2, 3) is True

    def test_potential_level_invariant_holds_along_workload(self):
        rng = random.Random(99)
        n, k = 4, 2
        spec, spec_state, emulated = spec_and_emulation(n, k)
        for _ in range(300):
            pid = rng.randrange(n)
            name = rng.choice(["transfer", "transferFrom", "approve"])
            if name == "transfer":
                args = (rng.randrange(n), rng.randint(0, 4))
            elif name == "transferFrom":
                args = (rng.randrange(n), rng.randrange(n), rng.randint(0, 4))
            else:
                args = (rng.randrange(n), rng.randint(0, 4))
            spec_state, _ = spec.apply(spec_state, pid, Operation(name, args))
            run_sequential(emulated, pid, METHODS[name], *args)
            assert potential_level(spec_state) <= k


class TestLiteralVariantQuirks:
    """Reproduction note 2: the literal algorithm's deviations."""

    def test_literal_guard_rejects_reapproval_at_k(self):
        _, _, emulated = spec_and_emulation(4, 2, variant="literal")
        assert run_sequential(emulated, 0, "approve", 1, 3) is True
        # Re-approving the SAME spender is rejected by the literal guard
        # (count == k), though the spec would allow it.
        assert run_sequential(emulated, 0, "approve", 1, 5) is False
        # Corrected variant allows it.
        _, _, corrected = spec_and_emulation(4, 2, variant="corrected")
        assert run_sequential(corrected, 0, "approve", 1, 3) is True
        assert run_sequential(corrected, 0, "approve", 1, 5) is True

    def test_literal_guard_rejects_revocation_at_k(self):
        _, _, emulated = spec_and_emulation(4, 2, variant="literal")
        run_sequential(emulated, 0, "approve", 1, 3)
        assert run_sequential(emulated, 0, "approve", 1, 0) is False

    def test_literal_allowance_leak_on_failed_transfer(self):
        # Allowance 5 but balance 3: the literal algorithm decrements the
        # allowance register before k-AT.transfer fails, and never restores.
        state = TokenState.create([0, 3, 0], {(1, 2): 5})
        literal = EmulatedToken(state, k=2, variant="literal")
        assert run_sequential(literal, 2, "transfer_from", 1, 2, 5) is False
        assert run_sequential(literal, 2, "allowance", 1, 2) == 0  # leaked!
        corrected = EmulatedToken(state, k=2, variant="corrected")
        assert run_sequential(corrected, 2, "transfer_from", 1, 2, 5) is False
        assert run_sequential(corrected, 2, "allowance", 1, 2) == 5  # restored

    def test_literal_zero_value_transfer_from_deviates(self):
        # Definition 3 returns TRUE for value-0 transferFrom by anyone; the
        # literal algorithm forwards to k-AT, which rejects non-owners.
        state = TokenState.deploy(3, 5)
        literal = EmulatedToken(state, k=2, variant="literal")
        assert run_sequential(literal, 1, "transfer_from", 0, 2, 0) is False
        corrected = EmulatedToken(state, k=2, variant="corrected")
        assert run_sequential(corrected, 1, "transfer_from", 0, 2, 0) is True

    def test_literal_total_supply_sequentially_correct(self):
        _, _, literal = spec_and_emulation(3, 2, supply=9, variant="literal")
        assert run_sequential(literal, 0, "total_supply") == 9


class TestConcurrentLinearizability:
    """Exploration + Wing&Gong on the emulated-object histories."""

    @staticmethod
    def _factory(initial: TokenState, k: int, variant: str, steps_by_pid: dict):
        def build() -> System:
            from repro.spec.history import History

            history = History()
            emulated = EmulatedToken(
                initial, k=k, variant=variant, history=history
            )
            pids = sorted(steps_by_pid)
            programs = [
                (
                    lambda p=pid: workload_program(
                        emulated, p, steps_by_pid[p]
                    )
                )
                for pid in pids
            ]
            return System(
                programs=programs,
                objects=emulated.base_objects,
                meta={"history": history, "emulated": emulated},
                pids=pids,
            )

        return build

    @staticmethod
    def _linearizability_check(spec_type, initial_state):
        def check(runners, system, schedule):
            history = system.meta["history"]
            result = check_linearizability(
                history.project(system.meta["emulated"].name),
                spec_type,
                initial_state=initial_state,
            )
            if not result.is_linearizable:
                rendered = "; ".join(str(e) for e in history)
                return [f"non-linearizable history: {rendered}"]
            return []

        return check

    def test_disjoint_account_concurrency_is_linearizable(self):
        # Two owners working on their own accounts concurrently: always
        # linearizable, under every interleaving.
        initial = TokenState.create([5, 5, 0])
        spec = restrict_to_potential_qk(ERC20TokenType(3), 2)
        steps = {
            0: [("transfer", (2, 3)), ("balance_of", (0,))],
            1: [("transfer", (2, 4)), ("balance_of", (1,))],
        }
        factory = self._factory(initial, 2, "corrected", steps)
        report = ScheduleExplorer(factory).explore(
            checks=[self._linearizability_check(spec, initial)]
        )
        assert report.ok, report.violations[:1]

    def test_spender_race_on_same_account_is_linearizable(self):
        # Two spenders racing on one account: the k-AT balance check
        # adjudicates atomically; histories stay linearizable.
        initial = TokenState.create([5, 0, 0], {(0, 1): 5, (0, 2): 5})
        spec = restrict_to_potential_qk(ERC20TokenType(3), 3)
        steps = {
            1: [("transfer_from", (0, 1, 5))],
            2: [("transfer_from", (0, 2, 5))],
        }
        factory = self._factory(initial, 3, "corrected", steps)
        report = ScheduleExplorer(factory).explore(
            checks=[self._linearizability_check(spec, initial)]
        )
        assert report.ok, report.violations[:1]

    def test_approve_race_breaks_linearizability(self):
        # Reproduction note 2: the allowance cell is multi-writer (owner's
        # approve vs spender's decrement) — some interleaving loses one of
        # the updates and no linearization explains the final reads.
        initial = TokenState.create([10, 0], {(0, 1): 5})
        spec = restrict_to_potential_qk(ERC20TokenType(2), 2)
        steps = {
            0: [("approve", (1, 10)), ("allowance", (0, 1))],
            1: [("transfer_from", (0, 1, 5))],
        }
        factory = self._factory(initial, 2, "corrected", steps)
        report = ScheduleExplorer(factory).explore(
            checks=[self._linearizability_check(spec, initial)]
        )
        assert not report.ok, (
            "the multi-writer approve race must surface as a "
            "non-linearizable history on some schedule"
        )
