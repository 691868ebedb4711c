"""Tests for the Q_k partition, predicate U, and synchronization states S_k
(Eqs. 11, 13, 14)."""

from __future__ import annotations

import pytest

from repro.analysis.partition import (
    classify,
    is_synchronization_state,
    make_synchronization_state,
    synchronization_accounts,
    synchronization_level,
    unique_transfer,
    unique_transfer_strict,
)
from repro.errors import InvalidArgumentError
from repro.objects.erc20 import TokenState


class TestSynchronizationLevel:
    def test_deployed_state_is_level_1(self):
        state = TokenState.deploy(4, 10)
        assert synchronization_level(state) == 1

    def test_level_counts_max_account(self):
        state = TokenState.create(
            [5, 5, 0, 0], {(0, 1): 1, (1, 0): 1, (1, 2): 1}
        )
        assert synchronization_level(state) == 3

    def test_partition_is_exclusive(self):
        state = TokenState.create([5, 0], {(0, 1): 1})
        assert synchronization_level(state) == 2

    def test_partition_covers_every_state(self):
        # Every state belongs to exactly one cell (Eq. 11 defines a partition).
        states = [
            TokenState.deploy(3, 10),
            TokenState.create([5, 0, 0], {(0, 1): 2}),
            TokenState.create([5, 0, 0], {(0, 1): 2, (0, 2): 2}),
            TokenState.create([0, 0, 0], {(0, 1): 2, (0, 2): 2}),
        ]
        for state in states:
            assert 1 <= synchronization_level(state) <= 3


class TestPredicateU:
    def test_requires_positive_balance(self):
        state = TokenState.create([0, 0], {(0, 1): 1})
        assert not unique_transfer(state, 0)

    def test_two_spenders_always_satisfy_literal_u(self):
        # |σ| <= 2 branch of Eq. 13.
        state = TokenState.create([10, 0], {(0, 1): 99})
        assert unique_transfer(state, 0)

    def test_pairwise_sum_condition(self):
        # Three spenders: allowances must pairwise exceed the balance.
        good = TokenState.create([10, 0, 0], {(0, 1): 6, (0, 2): 6})
        assert unique_transfer(good, 0)
        bad = TokenState.create([10, 0, 0], {(0, 1): 4, (0, 2): 6})
        assert not unique_transfer(bad, 0)

    def test_strict_additionally_bounds_allowances(self):
        # Literal U holds but a spender's allowance exceeds the balance: the
        # erratum case — strict U* must reject it.
        state = TokenState.create([10, 0], {(0, 1): 11})
        assert unique_transfer(state, 0)
        assert not unique_transfer_strict(state, 0)

    def test_strict_holds_for_equal_allowances(self):
        state = TokenState.create([10, 0, 0], {(0, 1): 10, (0, 2): 10})
        assert unique_transfer_strict(state, 0)

    def test_strict_implies_literal(self):
        states = [
            TokenState.create([10, 0, 0], {(0, 1): 10, (0, 2): 10}),
            TokenState.create([3, 0, 0], {(0, 1): 2, (0, 2): 2}),
            TokenState.create([5, 0], {(0, 1): 5}),
        ]
        for state in states:
            if unique_transfer_strict(state, 0):
                assert unique_transfer(state, 0)


class TestSynchronizationStates:
    def test_membership(self):
        state = TokenState.create([10, 0, 0], {(0, 1): 10, (0, 2): 10})
        assert is_synchronization_state(state, 3)
        assert not is_synchronization_state(state, 2)

    def test_witness_accounts(self):
        state = TokenState.create([10, 0, 0], {(0, 1): 10, (0, 2): 10})
        assert synchronization_accounts(state, 3) == (0,)

    def test_literal_vs_strict_membership(self):
        state = TokenState.create([10, 0], {(0, 1): 11})
        assert is_synchronization_state(state, 2, strict=False)
        assert not is_synchronization_state(state, 2, strict=True)

    def test_deployed_state_is_s1(self):
        state = TokenState.deploy(3, 10)
        assert is_synchronization_state(state, 1)


class TestMakeSynchronizationState:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_construction_lands_in_sk(self, k):
        state = make_synchronization_state(max(k, 2) + 1, k)
        assert is_synchronization_state(state, k, strict=True)
        assert synchronization_level(state) == k

    def test_custom_witness_account(self):
        state = make_synchronization_state(4, 3, account=2)
        assert synchronization_accounts(state, 3) == (2,)

    def test_custom_balance(self):
        state = make_synchronization_state(4, 2, balance=7)
        assert state.balance(0) == 7

    def test_invalid_k_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_synchronization_state(3, 4)

    def test_zero_balance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_synchronization_state(3, 2, balance=0)

    def test_k_must_be_positive(self):
        # Q_0 is empty: the owner is always an enabled spender.
        with pytest.raises(InvalidArgumentError):
            make_synchronization_state(3, 0)

    def test_witness_account_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_synchronization_state(3, 2, account=3)


class TestClassify:
    def test_full_classification(self):
        state = TokenState.create([10, 0, 0], {(0, 1): 10, (0, 2): 10})
        result = classify(state)
        assert result.level == 3
        assert result.sync_level_strict == 3
        assert result.sync_level_literal == 3
        assert result.witnesses == (0,)

    def test_erratum_state_classification(self):
        # Account 0 has two spenders but fails U* (allowance 11 > balance 10);
        # account 1 is empty, so no strict witness exists at any level.
        state = TokenState.create([10, 0], {(0, 1): 11})
        result = classify(state)
        assert result.level == 2
        assert result.sync_level_literal == 2
        assert result.sync_level_strict == 0
        assert result.witnesses == ()

    def test_deployed(self):
        result = classify(TokenState.deploy(3, 10))
        assert result.level == 1
        assert result.sync_level_strict == 1
        assert result.witnesses == (0,)
