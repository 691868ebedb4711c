"""Tests for the asset-transfer object (Definition 1)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgumentError
from repro.objects.asset_transfer import (
    AssetTransfer,
    AssetTransferType,
    ATState,
    DynamicOwnerAT,
)
from repro.spec.operation import op


class TestDefinition1Transitions:
    """Each Δ branch of Definition 1."""

    def test_owner_transfer_succeeds(self):
        at = AssetTransferType([5, 0])
        state, result = at.apply(at.initial_state(), 0, op("transfer", 0, 1, 3))
        assert result is True
        assert state.balances == (2, 3)

    def test_insufficient_balance_fails(self):
        at = AssetTransferType([5, 0])
        state, result = at.apply(at.initial_state(), 0, op("transfer", 0, 1, 6))
        assert result is False
        assert state.balances == (5, 0)

    def test_non_owner_fails(self):
        # p1 is not in µ(a0): the transfer returns FALSE, state unchanged.
        at = AssetTransferType([5, 0])
        state, result = at.apply(at.initial_state(), 1, op("transfer", 0, 1, 1))
        assert result is False
        assert state.balances == (5, 0)

    def test_balance_of(self):
        at = AssetTransferType([5, 2])
        _, result = at.apply(at.initial_state(), 1, op("balanceOf", 0))
        assert result == 5

    def test_total_supply(self):
        at = AssetTransferType([5, 2])
        _, result = at.apply(at.initial_state(), 0, op("totalSupply"))
        assert result == 7

    def test_exact_balance_transfer(self):
        at = AssetTransferType([5, 0])
        state, result = at.apply(at.initial_state(), 0, op("transfer", 0, 1, 5))
        assert result is True
        assert state.balances == (0, 5)

    def test_zero_transfer_by_owner(self):
        at = AssetTransferType([5, 0])
        state, result = at.apply(at.initial_state(), 0, op("transfer", 0, 1, 0))
        assert result is True
        assert state.balances == (5, 0)


class TestSharedAccounts:
    def test_k_classification(self):
        at = AssetTransferType([3, 0, 0], owner_map=[{0, 1, 2}, {1}, {2}])
        assert at.k == 3

    def test_single_owner_default(self):
        at = AssetTransferType([1, 1])
        assert at.k == 1
        assert at.owners(0) == frozenset({0})

    def test_any_owner_can_spend_shared_account(self):
        at = AssetTransferType([4, 0, 0], owner_map=[{0, 1}, {1}, {2}])
        state, result = at.apply(at.initial_state(), 1, op("transfer", 0, 2, 2))
        assert result is True
        assert state.balances == (2, 0, 2)

    def test_non_member_of_shared_account_rejected(self):
        at = AssetTransferType([4, 0, 0], owner_map=[{0, 1}, {1}, {2}])
        _, result = at.apply(at.initial_state(), 2, op("transfer", 0, 2, 2))
        assert result is False


class TestValidation:
    def test_negative_balance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AssetTransferType([-1])

    def test_empty_owner_set_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AssetTransferType([1, 1], owner_map=[set(), {1}])

    def test_owner_map_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            AssetTransferType([1, 1], owner_map=[{0}])

    def test_unknown_owner_pid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AssetTransferType([1, 1], owner_map=[{0}, {5}])

    def test_unknown_account_raises(self):
        at = AssetTransferType([1, 1])
        with pytest.raises(InvalidArgumentError):
            at.apply(at.initial_state(), 0, op("transfer", 0, 9, 1))

    def test_negative_amount_raises(self):
        at = AssetTransferType([1, 1])
        with pytest.raises(InvalidArgumentError):
            at.apply(at.initial_state(), 0, op("transfer", 0, 1, -1))


class TestRuntimeObject:
    def test_shared_object_wrapper(self):
        at = AssetTransfer([5, 0])
        assert at.invoke(0, at.transfer(0, 1, 2).operation) is True
        assert at.invoke(0, at.balance_of(1).operation) == 2

    def test_supply_conserved(self):
        at = AssetTransfer([5, 3])
        at.invoke(0, at.transfer(0, 1, 4).operation)
        assert at.invoke(0, at.total_supply().operation) == 8


class TestDynamicOwnerAT:
    def test_set_owners_changes_authorization(self):
        at = DynamicOwnerAT([5, 0, 0], max_owners=2)
        assert at.invoke(1, at.transfer(0, 2, 1).operation) is False
        assert at.invoke(0, at.set_owners(0, {0, 1}).operation) is True
        assert at.invoke(1, at.transfer(0, 2, 1).operation) is True

    def test_k_bound_enforced(self):
        at = DynamicOwnerAT([5, 0, 0], max_owners=2)
        assert at.invoke(0, at.set_owners(0, {0, 1, 2}).operation) is False

    def test_initial_owner_map_must_respect_bound(self):
        with pytest.raises(InvalidArgumentError):
            DynamicOwnerAT(
                [1, 1, 1], owner_map=[{0, 1, 2}, {1}, {2}], max_owners=2
            )

    def test_balance_and_supply(self):
        at = DynamicOwnerAT([5, 1], max_owners=1)
        assert at.invoke(0, at.balance_of(0).operation) == 5
        assert at.invoke(0, at.total_supply().operation) == 6

    def test_empty_owner_set_rejected(self):
        at = DynamicOwnerAT([1, 1], max_owners=1)
        with pytest.raises(InvalidArgumentError):
            at.invoke(0, at.set_owners(0, set()).operation)


class TestATState:
    def test_with_transfer(self):
        state = ATState((5, 0))
        assert state.with_transfer(0, 1, 2).balances == (3, 2)

    def test_total_supply(self):
        assert ATState((5, 3)).total_supply == 8

    def test_immutability(self):
        state = ATState((5, 0))
        state.with_transfer(0, 1, 2)
        assert state.balances == (5, 0)
