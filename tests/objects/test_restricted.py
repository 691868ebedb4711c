"""Tests for transition-restricted object types (T|Q')."""

from __future__ import annotations

import pytest

from repro.analysis.partition import synchronization_level
from repro.analysis.spenders import potential_level
from repro.errors import InvalidArgumentError
from repro.objects.erc20 import ERC20TokenType
from repro.objects.register import RegisterType
from repro.objects.restricted import (
    RestrictedObject,
    RestrictedType,
    restrict_to_potential_qk,
    restrict_to_qk,
)
from repro.spec.operation import op


class TestRestrictedType:
    def test_allowed_transition_passes_through(self):
        restricted = RestrictedType(RegisterType(0), lambda s: s < 10)
        state, result = restricted.apply(0, 0, op("write", 5))
        assert state == 5
        assert result is True

    def test_blocked_transition_returns_false(self):
        restricted = RestrictedType(RegisterType(0), lambda s: s < 10)
        state, result = restricted.apply(0, 0, op("write", 15))
        assert state == 0
        assert result is False

    def test_reads_never_blocked(self):
        restricted = RestrictedType(RegisterType(0), lambda s: s < 10)
        state, result = restricted.apply(5, 0, op("read"))
        assert state == 5
        assert result == 5

    def test_initial_state_must_be_allowed(self):
        with pytest.raises(InvalidArgumentError):
            RestrictedType(RegisterType(99), lambda s: s is not None and s < 10)

    def test_name_default(self):
        restricted = RestrictedType(RegisterType(0), lambda s: True)
        assert "register" in restricted.name

    def test_operation_names_forwarded(self):
        restricted = RestrictedType(RegisterType(0), lambda s: True)
        assert restricted.operation_names() == ("read", "write")


class TestRestrictToQk:
    def test_approve_within_k_allowed(self):
        token = ERC20TokenType(3, total_supply=6)
        restricted = restrict_to_qk(token, 2)
        state, result = restricted.apply(
            restricted.initial_state(), 0, op("approve", 1, 3)
        )
        assert result is True
        assert synchronization_level(state) == 2

    def test_approve_beyond_k_blocked(self):
        token = ERC20TokenType(3, total_supply=6)
        restricted = restrict_to_qk(token, 2)
        state, _ = restricted.apply(
            restricted.initial_state(), 0, op("approve", 1, 3)
        )
        blocked, result = restricted.apply(state, 0, op("approve", 2, 3))
        assert result is False
        assert blocked == state
        assert synchronization_level(blocked) == 2

    def test_transfers_within_k_unaffected(self):
        token = ERC20TokenType(3, total_supply=6)
        restricted = restrict_to_qk(token, 2)
        state, result = restricted.apply(
            restricted.initial_state(), 0, op("transfer", 1, 4)
        )
        assert result is True
        assert state.balances == (2, 4, 0)

    def test_a_lowering_transition_leaves_q_k_downward(self):
        """README.md, Reproduction note 3: the restriction keeps
        ``Q_≤k``, as Algorithm 2 does — a ``transferFrom`` that uses up the
        only allowance drops the level from ``k`` to 1, and is allowed."""
        token = ERC20TokenType(3, total_supply=6)
        restricted = restrict_to_qk(token, 2)
        state, _ = restricted.apply(
            restricted.initial_state(), 0, op("approve", 1, 3)
        )
        assert synchronization_level(state) == 2
        lowered, result = restricted.apply(
            state, 1, op("transferFrom", 0, 2, 3)
        )
        assert result is True
        assert synchronization_level(lowered) == 1

    def test_k_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            restrict_to_qk(ERC20TokenType(2), 0)

    def test_zero_balance_approve_allowed_under_sigma_restriction(self):
        # σ ignores allowances on empty accounts, so approving from an empty
        # account never raises the level under the σ-based restriction.
        token = ERC20TokenType(3)  # all balances zero
        restricted = restrict_to_qk(token, 1)
        state, result = restricted.apply(
            restricted.initial_state(), 0, op("approve", 1, 5)
        )
        assert result is True
        assert synchronization_level(state) == 1


class TestRestrictToPotentialQk:
    def test_potential_restriction_blocks_empty_account_approvals(self):
        # Algorithm 2's guard counts allowances regardless of balance.
        token = ERC20TokenType(3)
        restricted = restrict_to_potential_qk(token, 1)
        state, result = restricted.apply(
            restricted.initial_state(), 0, op("approve", 1, 5)
        )
        assert result is False
        assert potential_level(state) == 1

    def test_potential_bound_dominates_sigma_level(self):
        token = ERC20TokenType(3, total_supply=6)
        restricted = restrict_to_potential_qk(token, 2)
        state = restricted.initial_state()
        state, _ = restricted.apply(state, 0, op("approve", 1, 3))
        _, blocked = restricted.apply(state, 0, op("approve", 2, 3))
        assert blocked is False
        assert synchronization_level(state) <= potential_level(state) <= 2


class TestRestrictedObject:
    def test_runtime_wrapper(self):
        obj = RestrictedObject(RegisterType(0), lambda s: s < 10)
        assert obj.invoke(0, obj.op("write", 3).operation) is True
        assert obj.invoke(0, obj.op("write", 30).operation) is False
        assert obj.invoke(0, obj.op("read").operation) == 3
