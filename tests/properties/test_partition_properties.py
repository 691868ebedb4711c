"""Property-based tests for the Q_k partition and synchronization states."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.partition import (
    is_synchronization_state,
    make_synchronization_state,
    synchronization_level,
    unique_transfer,
    unique_transfer_strict,
)
from repro.analysis.reachability import escalation_plan
from repro.objects.erc20 import ERC20TokenType, TokenState


@st.composite
def token_states(draw):
    n = draw(st.integers(2, 5))
    balances = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    allowances = {}
    for _ in range(draw(st.integers(0, 8))):
        account = draw(st.integers(0, n - 1))
        spender = draw(st.integers(0, n - 1))
        allowances[(account, spender)] = draw(st.integers(0, 15))
    return TokenState.create(balances, allowances)


class TestPartitionLaws:
    @given(token_states())
    @settings(max_examples=200, deadline=None)
    def test_every_state_in_exactly_one_cell(self, state):
        assert 1 <= synchronization_level(state) <= state.num_accounts

    @given(token_states())
    @settings(max_examples=200, deadline=None)
    def test_strict_u_implies_literal_u(self, state):
        for account in range(state.num_accounts):
            if unique_transfer_strict(state, account):
                assert unique_transfer(state, account)

    @given(token_states())
    @settings(max_examples=200, deadline=None)
    def test_sk_strict_implies_sk_literal(self, state):
        for k in range(1, state.num_accounts + 1):
            if is_synchronization_state(state, k, strict=True):
                assert is_synchronization_state(state, k, strict=False)

    @given(token_states())
    @settings(max_examples=200, deadline=None)
    def test_sk_membership_is_within_qk_or_below(self, state):
        # A witness account with k spenders means max level >= k.
        for k in range(1, state.num_accounts + 1):
            if is_synchronization_state(state, k, strict=True):
                assert synchronization_level(state) >= k


class TestConstructions:
    @given(st.integers(2, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_make_synchronization_state_always_lands_in_sk(self, n, data):
        k = data.draw(st.integers(1, n))
        balance = data.draw(st.integers(k, 3 * k))
        state = make_synchronization_state(n, k, balance=balance)
        assert is_synchronization_state(state, k, strict=True)
        assert synchronization_level(state) == k

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_escalation_plan_reaches_sk(self, n, data):
        k = data.draw(st.integers(1, n))
        account = data.draw(st.integers(0, n - 1))
        token = ERC20TokenType(n, total_supply=k)
        plan = escalation_plan(n, k, account=account)
        state, responses = token.run(plan)
        assert all(responses)
        assert is_synchronization_state(state, k, strict=True)
