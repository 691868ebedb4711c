"""Tests for Algorithm 1 (Theorem 2): consensus from ERC20 tokens.

The exhaustive tests mechanically verify the theorem's claim for small ``k``:
*every* interleaving (and every crash pattern within the budget) satisfies
agreement, validity, and termination.  Randomized sweeps extend coverage to
larger ``k``.
"""

from __future__ import annotations

import pytest

from repro.analysis.partition import make_synchronization_state
from repro.errors import InvalidArgumentError
from repro.objects.erc20 import ERC20Token, TokenState
from repro.protocols.base import consensus_checks
from repro.protocols.token_consensus import TokenConsensus, algorithm1_system
from repro.runtime.executor import run_system
from repro.runtime.explorer import ScheduleExplorer
from repro.runtime.scheduler import (
    FixedScheduler,
    RandomScheduler,
    SoloScheduler,
)


class TestConstruction:
    def test_configuration_from_state(self):
        state = make_synchronization_state(4, 3)
        token = ERC20Token(4, initial_state=state)
        protocol = TokenConsensus(token, account=0)
        assert protocol.k == 3
        assert protocol.participants == (0, 1, 2)
        assert protocol.balance == 3
        assert protocol.dest != protocol.account

    def test_the_synchronization_account_is_required(self):
        token = ERC20Token(4, initial_state=make_synchronization_state(4, 3))
        with pytest.raises(TypeError):
            TokenConsensus(token)

    def test_rejects_non_synchronization_state(self):
        token = ERC20Token(3, total_supply=10)
        token.invoke(0, token.approve(1, 20).operation)  # allowance > balance
        with pytest.raises(InvalidArgumentError):
            TokenConsensus(token, account=0)

    def test_literal_mode_accepts_erratum_state(self):
        state = TokenState.create([10, 0], {(0, 1): 11})
        token = ERC20Token(2, initial_state=state)
        protocol = TokenConsensus(token, account=0, strict=False)
        assert protocol.k == 2

    def test_register_count_checked(self):
        from repro.objects.register import register_array

        state = make_synchronization_state(3, 2)
        token = ERC20Token(3, initial_state=state)
        with pytest.raises(InvalidArgumentError):
            TokenConsensus(token, account=0, registers=register_array(5))

    def test_non_participant_rejected(self):
        state = make_synchronization_state(4, 2)
        token = ERC20Token(4, initial_state=state)
        protocol = TokenConsensus(token, account=0)
        with pytest.raises(InvalidArgumentError):
            protocol.index_of(3)


class TestSequentialRuns:
    def test_solo_owner_decides_own_value(self):
        system = algorithm1_system({0: "a", 1: "b"})
        result = run_system(system, SoloScheduler([0, 1]))
        assert result.decisions == {0: "a", 1: "a"}

    def test_solo_spender_decides_own_value(self):
        system = algorithm1_system({0: "a", 1: "b"})
        result = run_system(system, SoloScheduler([1, 0]))
        assert result.decisions == {0: "b", 1: "b"}

    def test_none_is_a_valid_proposal(self):
        # Undecided is the registers' own sentinel, not ``None``: a None
        # proposal wins like any other value, from either side.
        owner_first = run_system(
            algorithm1_system({0: None, 1: "b"}), SoloScheduler([0, 1])
        )
        assert owner_first.decisions == {0: None, 1: None}
        spender_first = run_system(
            algorithm1_system({0: "a", 1: None}), SoloScheduler([1, 0])
        )
        assert spender_first.decisions == {0: None, 1: None}

    def test_later_proposers_adopt_the_decided_value(self):
        system = algorithm1_system({0: "a", 1: "b", 2: "c"})
        result = run_system(system, SoloScheduler([2, 0, 1]))
        assert result.decisions == {0: "c", 1: "c", 2: "c"}

    def test_k1_trivial(self):
        system = algorithm1_system({0: "only"})
        result = run_system(system)
        assert result.decisions == {0: "only"}

    def test_interleaved_race(self):
        # Both write registers, then both attempt their transfer: the
        # scheduled order of the transfer steps decides.
        system = algorithm1_system({0: "a", 1: "b"})
        # Steps: p0.write, p1.write, p1.transferFrom (wins), p0.transfer ...
        result = run_system(system, FixedScheduler([0, 1, 1, 0, 0, 0, 1, 1]))
        assert set(result.decisions.values()) == {"b"}


@pytest.mark.parametrize("k", [2, 3])
class TestExhaustive:
    def test_every_schedule_correct(self, k):
        proposals = {pid: f"v{pid}" for pid in range(k)}
        factory = lambda: algorithm1_system(proposals)
        explorer = ScheduleExplorer(factory)
        report = explorer.explore(checks=[consensus_checks(proposals)])
        assert report.ok, report.violations[:3]
        # Every participant's value is reachable: the race is genuinely open.
        assert report.outcomes == set(proposals.values())

    def test_wait_freedom_under_crashes(self, k):
        proposals = {pid: f"v{pid}" for pid in range(k)}
        factory = lambda: algorithm1_system(proposals)
        explorer = ScheduleExplorer(factory, crash_budget=k - 1)
        report = explorer.explore(checks=[consensus_checks(proposals)])
        assert report.ok, report.violations[:3]


class TestRandomizedSweeps:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_agreement_validity_across_seeds(self, k):
        proposals = {pid: f"v{pid}" for pid in range(k)}
        for seed in range(20):
            system = algorithm1_system(proposals)
            result = run_system(system, RandomScheduler(seed))
            values = set(result.decisions.values())
            assert len(values) == 1, f"seed {seed}: {result.decisions}"
            assert values <= set(proposals.values())

    @pytest.mark.parametrize("k", [3, 5])
    def test_with_random_crashes(self, k):
        proposals = {pid: f"v{pid}" for pid in range(k)}
        for seed in range(20):
            system = algorithm1_system(proposals)
            scheduler = RandomScheduler(
                seed, crash_probability=0.1, crash_budget=k - 1
            )
            result = run_system(system, scheduler)
            values = set(result.decisions.values())
            assert len(values) <= 1
            correct = set(range(k)) - result.crashed
            assert set(result.decisions) == correct


class TestNonCanonicalStates:
    def test_unequal_allowances(self):
        # U* with distinct allowances: B=10, A=(7, 8); pairwise 7+8 > 10.
        state = TokenState.create([10, 0, 0], {(0, 1): 7, (0, 2): 8})
        proposals = {0: "x", 1: "y", 2: "z"}
        factory = lambda: algorithm1_system(proposals, state=state)
        report = ScheduleExplorer(factory).explore(
            checks=[consensus_checks(proposals)]
        )
        assert report.ok
        assert report.outcomes == {"x", "y", "z"}

    def test_witness_account_not_zero(self):
        state = make_synchronization_state(4, 2, account=2)
        proposals = {2: "owner", 0: "spender"}
        factory = lambda: algorithm1_system(
            proposals, state=state, account=2
        )
        report = ScheduleExplorer(factory).explore(
            checks=[consensus_checks(proposals)]
        )
        assert report.ok

    def test_step_complexity_linear_in_k(self):
        # propose is O(k): 1 write + 1 transfer + ≤(k-1) allowance reads + 1
        # register read.
        for k in (2, 4, 6):
            system = algorithm1_system({pid: pid for pid in range(k)})
            result = run_system(system)
            per_process = max(r.steps_taken for r in result.runners)
            assert per_process <= k + 3
