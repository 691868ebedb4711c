"""Tests for the ERC777 token object (§6)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgumentError
from repro.objects.erc777 import ERC777Token, ERC777TokenType
from repro.spec.operation import op


@pytest.fixture
def token() -> ERC777TokenType:
    return ERC777TokenType([10, 0, 0])


class TestSend:
    def test_send_succeeds(self, token):
        state, result = token.apply(token.initial_state(), 0, op("send", 1, 4))
        assert result is True
        assert state.balances == (6, 4, 0)

    def test_send_insufficient_fails(self, token):
        state = token.initial_state()
        successor, result = token.apply(state, 1, op("send", 0, 1))
        assert result is False
        assert successor == state

    def test_send_zero(self, token):
        state, result = token.apply(token.initial_state(), 1, op("send", 0, 0))
        assert result is True


class TestOperators:
    def test_self_is_always_operator(self, token):
        state = token.initial_state()
        assert token.apply(state, 0, op("isOperatorFor", 1, 1))[1] is True

    def test_authorize_and_send(self, token):
        state, result = token.apply(
            token.initial_state(), 0, op("authorizeOperator", 2)
        )
        assert result is True
        state, result = token.apply(state, 2, op("operatorSend", 0, 1, 7))
        assert result is True
        assert state.balances == (3, 7, 0)

    def test_operator_spends_entire_balance(self, token):
        # The §6 observation: operators have no bounded allowance.
        state, _ = token.apply(
            token.initial_state(), 0, op("authorizeOperator", 2)
        )
        state, result = token.apply(state, 2, op("operatorSend", 0, 2, 10))
        assert result is True
        assert state.balances == (0, 0, 10)

    def test_unauthorized_operator_send_fails(self, token):
        state = token.initial_state()
        successor, result = token.apply(state, 2, op("operatorSend", 0, 1, 1))
        assert result is False
        assert successor == state

    def test_revocation(self, token):
        state, _ = token.apply(
            token.initial_state(), 0, op("authorizeOperator", 2)
        )
        state, result = token.apply(state, 0, op("revokeOperator", 2))
        assert result is True
        _, result = token.apply(state, 2, op("operatorSend", 0, 1, 1))
        assert result is False

    def test_self_authorization_rejected(self, token):
        state = token.initial_state()
        successor, result = token.apply(state, 0, op("authorizeOperator", 0))
        assert result is False
        assert successor == state

    def test_operator_flag_visible(self, token):
        state, _ = token.apply(
            token.initial_state(), 0, op("authorizeOperator", 1)
        )
        assert (
            token.apply(state, 2, op("isOperatorFor", 1, 0))[1] is True
        )
        assert token.apply(state, 2, op("isOperatorFor", 2, 0))[1] is False


class TestReads:
    def test_balance_of(self, token):
        assert (
            token.apply(token.initial_state(), 1, op("balanceOf", 0))[1] == 10
        )

    def test_total_supply(self, token):
        state, _ = token.apply(token.initial_state(), 0, op("send", 1, 3))
        assert token.apply(state, 0, op("totalSupply"))[1] == 10


class TestValidation:
    def test_negative_balances_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ERC777TokenType([-1])

    def test_empty_accounts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ERC777TokenType([])

    def test_unknown_account(self, token):
        with pytest.raises(InvalidArgumentError):
            token.apply(token.initial_state(), 0, op("send", 9, 1))

    def test_negative_amount(self, token):
        with pytest.raises(InvalidArgumentError):
            token.apply(token.initial_state(), 0, op("send", 1, -1))


class TestRuntimeObject:
    def test_call_builders(self):
        token = ERC777Token([5, 0])
        assert token.invoke(0, token.authorize_operator(1).operation) is True
        assert token.invoke(1, token.operator_send(0, 1, 5).operation) is True
        assert token.invoke(0, token.balance_of(1).operation) == 5
        assert token.invoke(0, token.total_supply().operation) == 5

    def test_operator_builders_round_trip(self):
        token = ERC777Token([5, 0, 0])
        assert token.invoke(2, token.is_operator_for(1, 0).operation) is False
        assert token.invoke(0, token.authorize_operator(1).operation) is True
        assert token.invoke(2, token.is_operator_for(1, 0).operation) is True
        assert token.invoke(0, token.revoke_operator(1).operation) is True
        assert token.invoke(2, token.is_operator_for(1, 0).operation) is False
        # A revoked operator's send fails and moves nothing.
        assert token.invoke(1, token.operator_send(0, 1, 1).operation) is False
        assert token.invoke(2, token.balance_of(0).operation) == 5
