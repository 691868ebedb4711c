"""Tests for the ERC1155 multi-token object (§6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError
from repro.objects.erc1155 import (
    ERC1155Token,
    ERC1155TokenType,
    MultiTokenState,
)
from repro.spec.operation import op


@pytest.fixture
def token() -> ERC1155TokenType:
    # 3 accounts, 2 token types; account 0 holds 10 of type 0 and 4 of type 1.
    return ERC1155TokenType([[10, 4], [0, 0], [0, 0]])


class TestReads:
    def test_balance_of(self, token):
        state = token.initial_state()
        assert token.apply(state, 1, op("balanceOf", 0, 0))[1] == 10
        assert token.apply(state, 1, op("balanceOf", 0, 1))[1] == 4

    def test_balance_of_batch(self, token):
        state = token.initial_state()
        _, result = token.apply(
            state, 1, op("balanceOfBatch", (0, 0, 1), (0, 1, 0))
        )
        assert result == (10, 4, 0)

    def test_batch_read_length_mismatch(self, token):
        with pytest.raises(InvalidArgumentError):
            token.apply(
                token.initial_state(), 0, op("balanceOfBatch", (0, 1), (0,))
            )


class TestSafeTransferFrom:
    def test_holder_transfers(self, token):
        state, result = token.apply(
            token.initial_state(), 0, op("safeTransferFrom", 0, 1, 0, 6)
        )
        assert result is True
        assert state.balance(0, 0) == 4
        assert state.balance(1, 0) == 6

    def test_insufficient_fails(self, token):
        state = token.initial_state()
        successor, result = token.apply(
            state, 0, op("safeTransferFrom", 0, 1, 1, 5)
        )
        assert result is False
        assert successor == state

    def test_unauthorized_fails(self, token):
        state = token.initial_state()
        successor, result = token.apply(
            state, 1, op("safeTransferFrom", 0, 1, 0, 1)
        )
        assert result is False
        assert successor == state

    def test_operator_transfers(self, token):
        state, _ = token.apply(
            token.initial_state(), 0, op("setApprovalForAll", 2, True)
        )
        state, result = token.apply(
            state, 2, op("safeTransferFrom", 0, 2, 0, 3)
        )
        assert result is True
        assert state.balance(2, 0) == 3


class TestBatchTransfer:
    def test_batch_success(self, token):
        state, result = token.apply(
            token.initial_state(),
            0,
            op("safeBatchTransferFrom", 0, 1, (0, 1), (5, 2)),
        )
        assert result is True
        assert state.balance(1, 0) == 5
        assert state.balance(1, 1) == 2

    def test_batch_is_atomic(self, token):
        # Second component unaffordable: the whole batch must fail.
        state = token.initial_state()
        successor, result = token.apply(
            state, 0, op("safeBatchTransferFrom", 0, 1, (0, 1), (5, 9))
        )
        assert result is False
        assert successor == state

    def test_batch_aggregates_same_type(self, token):
        # 6 + 6 of type 0 exceeds the balance of 10 even though each
        # component alone is affordable.
        state = token.initial_state()
        successor, result = token.apply(
            state, 0, op("safeBatchTransferFrom", 0, 1, (0, 0), (6, 6))
        )
        assert result is False
        assert successor == state

    def test_batch_length_mismatch(self, token):
        with pytest.raises(InvalidArgumentError):
            token.apply(
                token.initial_state(),
                0,
                op("safeBatchTransferFrom", 0, 1, (0,), (1, 2)),
            )

    def test_empty_batch_succeeds(self, token):
        state = token.initial_state()
        successor, result = token.apply(
            state, 0, op("safeBatchTransferFrom", 0, 1, (), ())
        )
        assert result is True
        assert successor == state


class TestOperators:
    def test_toggle(self, token):
        state, result = token.apply(
            token.initial_state(), 0, op("setApprovalForAll", 1, True)
        )
        assert result is True
        assert token.apply(state, 2, op("isApprovedForAll", 0, 1))[1] is True
        state, _ = token.apply(state, 0, op("setApprovalForAll", 1, False))
        assert token.apply(state, 2, op("isApprovedForAll", 0, 1))[1] is False

    def test_self_approval_rejected(self, token):
        state = token.initial_state()
        successor, result = token.apply(
            state, 0, op("setApprovalForAll", 0, True)
        )
        assert result is False
        assert successor == state


class TestValidation:
    def test_ragged_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ERC1155TokenType([[1, 2], [3]])

    def test_negative_balance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ERC1155TokenType([[-1]])

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ERC1155TokenType([])

    def test_unknown_token_type(self, token):
        with pytest.raises(InvalidArgumentError):
            token.apply(token.initial_state(), 0, op("balanceOf", 0, 9))


class TestRuntimeObject:
    def test_call_builders(self):
        token = ERC1155Token([[5, 0], [0, 0]])
        assert (
            token.invoke(0, token.safe_transfer_from(0, 1, 0, 2).operation)
            is True
        )
        assert token.invoke(0, token.balance_of(1, 0).operation) == 2
        assert (
            token.invoke(
                0, token.safe_batch_transfer_from(0, 1, [0], [3]).operation
            )
            is True
        )
        assert token.invoke(
            0, token.balance_of_batch([0, 1], [0, 0]).operation
        ) == (0, 5)

    def test_operator_builders_round_trip(self):
        token = ERC1155Token([[5, 0], [0, 0], [0, 0]])
        assert (
            token.invoke(2, token.is_approved_for_all(0, 1).operation)
            is False
        )
        assert token.invoke(0, token.set_approval_for_all(1, True).operation)
        assert (
            token.invoke(2, token.is_approved_for_all(0, 1).operation)
            is True
        )
        assert token.invoke(1, token.safe_transfer_from(0, 1, 0, 2).operation)
        assert token.invoke(0, token.set_approval_for_all(1, False).operation)
        assert (
            token.invoke(2, token.is_approved_for_all(0, 1).operation)
            is False
        )
        # A revoked operator can no longer move the holder's tokens.
        assert (
            token.invoke(1, token.safe_transfer_from(0, 1, 0, 1).operation)
            is False
        )
        assert token.invoke(2, token.balance_of(0, 0).operation) == 3


class TestRowSharing:
    def test_with_transfers_shares_every_untouched_row(self):
        token = ERC1155TokenType([[10, 4], [0, 0], [1, 1], [2, 2]])
        state = token.initial_state()
        new = state.with_transfers(0, 2, [(0, 3), (1, 1)])
        assert new.balances == ((7, 3), (0, 0), (4, 2), (2, 2))
        assert new.balances[1] is state.balances[1]
        assert new.balances[3] is state.balances[3]
        assert new.operators is state.operators

    def test_self_transfer_rebuilds_one_row_to_the_same_value(self, token):
        state = token.initial_state()
        new = state.with_transfers(0, 0, [(0, 3)])
        assert new == state
        assert new.balances[1] is state.balances[1]
        assert new.balances[2] is state.balances[2]


class _DenseReference:
    """EIP-1155 transfers on a list-of-lists grid mutated in place and
    densified into fresh row tuples, as the pre-PR-17 ``with_transfers``
    did for every holder on every transfer."""

    def __init__(self, grid):
        self.grid = [list(row) for row in grid]
        self.operators = [set() for _ in grid]

    def state(self) -> MultiTokenState:
        return MultiTokenState(
            tuple(tuple(row) for row in self.grid),
            tuple(frozenset(ops) for ops in self.operators),
        )

    def approve(self, pid, operator):
        if operator == pid:
            return False
        self.operators[pid].add(operator)
        return True

    def transfer(self, pid, source, dest, token_types, values):
        if pid != source and pid not in self.operators[source]:
            return False
        needed: dict[int, int] = {}
        for token_type, value in zip(token_types, values):
            needed[token_type] = needed.get(token_type, 0) + value
        if any(self.grid[source][t] < total for t, total in needed.items()):
            return False
        for token_type, value in zip(token_types, values):
            self.grid[source][token_type] -= value
            self.grid[dest][token_type] += value
        return True


_N, _TYPES = 4, 3
_account = st.integers(0, _N - 1)
_move = st.tuples(st.integers(0, _TYPES - 1), st.integers(0, 5))
_erc1155_calls = st.tuples(
    _account,
    st.one_of(
        st.tuples(st.just("setApprovalForAll"), _account),
        st.tuples(
            st.just("safeTransferFrom"),
            _account,
            _account,
            st.lists(_move, min_size=1, max_size=1),
        ),
        st.tuples(
            st.just("safeBatchTransferFrom"),
            _account,
            _account,
            st.lists(_move, max_size=4),
        ),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    grid=st.lists(
        st.lists(st.integers(0, 9), min_size=_TYPES, max_size=_TYPES),
        min_size=_N,
        max_size=_N,
    ),
    calls=st.lists(_erc1155_calls, max_size=40),
)
def test_persistent_state_equals_the_dense_reference(grid, calls):
    token = ERC1155TokenType(grid)
    reference = _DenseReference(grid)
    state = token.initial_state()
    for pid, (name, *args) in calls:
        if name == "setApprovalForAll":
            (operator,) = args
            operation = op(name, operator, True)
            expected = reference.approve(pid, operator)
        else:
            source, dest, moves = args
            token_types = tuple(t for t, _ in moves)
            values = tuple(v for _, v in moves)
            if name == "safeTransferFrom":
                operation = op(name, source, dest, token_types[0], values[0])
            else:
                operation = op(name, source, dest, token_types, values)
            expected = reference.transfer(
                pid, source, dest, token_types, values
            )
        state, result = token.apply(state, pid, operation)
        assert result is expected
        dense = reference.state()
        assert state == dense and dense == state
        assert hash(state) == hash(dense)
