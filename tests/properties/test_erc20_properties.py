"""Property-based tests (hypothesis) for the ERC20 token object."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.partition import synchronization_level
from repro.analysis.spenders import enabled_spenders, potential_spenders
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import Operation

MAX_ACCOUNTS = 5


@st.composite
def token_operations(draw, num_accounts: int):
    """A random domain-valid ERC20 invocation."""
    pid = draw(st.integers(0, num_accounts - 1))
    kind = draw(
        st.sampled_from(
            ["transfer", "transferFrom", "approve", "balanceOf", "allowance", "totalSupply"]
        )
    )
    account = st.integers(0, num_accounts - 1)
    value = st.integers(0, 12)
    if kind == "transfer":
        operation = Operation(kind, (draw(account), draw(value)))
    elif kind == "transferFrom":
        operation = Operation(kind, (draw(account), draw(account), draw(value)))
    elif kind == "approve":
        operation = Operation(kind, (draw(account), draw(value)))
    elif kind == "balanceOf":
        operation = Operation(kind, (draw(account),))
    elif kind == "allowance":
        operation = Operation(kind, (draw(account), draw(account)))
    else:
        operation = Operation("totalSupply")
    return pid, operation


@st.composite
def executions(draw):
    num_accounts = draw(st.integers(2, MAX_ACCOUNTS))
    supply = draw(st.integers(0, 30))
    steps = draw(st.lists(token_operations(num_accounts), max_size=40))
    return num_accounts, supply, steps


class TestInvariants:
    @given(executions())
    @settings(max_examples=120, deadline=None)
    def test_supply_conservation(self, execution):
        num_accounts, supply, steps = execution
        token = ERC20TokenType(num_accounts, total_supply=supply)
        state, _ = token.run(steps)
        assert state.total_supply == supply

    @given(executions())
    @settings(max_examples=120, deadline=None)
    def test_balances_and_allowances_stay_natural(self, execution):
        num_accounts, supply, steps = execution
        token = ERC20TokenType(num_accounts, total_supply=supply)
        state = token.initial_state()
        for pid, operation in steps:
            state, _ = token.apply(state, pid, operation)
            assert all(balance >= 0 for balance in state.balances)
            assert all(
                state.allowance(account, spender) >= 0
                for account in range(num_accounts)
                for spender in range(num_accounts)
            )
            assert all(amount > 0 for _, amount in state.allowances.cells())

    @given(executions())
    @settings(max_examples=120, deadline=None)
    def test_false_responses_leave_state_unchanged(self, execution):
        num_accounts, supply, steps = execution
        token = ERC20TokenType(num_accounts, total_supply=supply)
        state = token.initial_state()
        for pid, operation in steps:
            successor, response = token.apply(state, pid, operation)
            if response is False:
                assert successor == state
            state = successor

    @given(executions())
    @settings(max_examples=100, deadline=None)
    def test_reads_never_modify(self, execution):
        num_accounts, supply, steps = execution
        token = ERC20TokenType(num_accounts, total_supply=supply)
        state, _ = token.run(steps)
        for name in ("balanceOf", "allowance", "totalSupply"):
            if name == "balanceOf":
                operation = Operation(name, (0,))
            elif name == "allowance":
                operation = Operation(name, (0, 1))
            else:
                operation = Operation(name)
            successor, _ = token.apply(state, 0, operation)
            assert successor == state

    @given(executions())
    @settings(max_examples=100, deadline=None)
    def test_sigma_laws(self, execution):
        num_accounts, supply, steps = execution
        token = ERC20TokenType(num_accounts, total_supply=supply)
        state, _ = token.run(steps)
        for account in range(num_accounts):
            sigma = enabled_spenders(state, account)
            assert account in sigma  # the owner is always enabled
            assert sigma <= potential_spenders(state, account)
            if state.balance(account) == 0:
                assert sigma == {account}

    @given(executions())
    @settings(max_examples=100, deadline=None)
    def test_level_bounds(self, execution):
        num_accounts, supply, steps = execution
        token = ERC20TokenType(num_accounts, total_supply=supply)
        state, _ = token.run(steps)
        level = synchronization_level(state)
        assert 1 <= level <= num_accounts

    @given(executions())
    @settings(max_examples=80, deadline=None)
    def test_transfer_pairs_on_distinct_accounts_commute(self, execution):
        num_accounts, supply, steps = execution
        token = ERC20TokenType(num_accounts, total_supply=supply)
        state, _ = token.run(steps)
        # Funded distinct source accounts with distinct destinations commute.
        sources = [a for a in range(num_accounts) if state.balance(a) >= 2]
        if len(sources) < 2:
            return
        p, q = sources[0], sources[1]
        op_p = Operation("transfer", (q, 1))
        op_q = Operation("transfer", (p, 1))
        s_pq, _ = token.run([(p, op_p), (q, op_q)], state=state)
        s_qp, _ = token.run([(q, op_q), (p, op_p)], state=state)
        assert s_pq == s_qp


class TestApproveSemantics:
    @given(
        st.integers(2, MAX_ACCOUNTS),
        st.integers(0, 20),
        st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_approve_overwrites(self, n, first, second):
        token = ERC20TokenType(n, total_supply=10)
        state, _ = token.run(
            [
                (0, Operation("approve", (1, first))),
                (0, Operation("approve", (1, second))),
            ]
        )
        assert state.allowance(0, 1) == second

    @given(st.integers(2, MAX_ACCOUNTS), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_transfer_from_decrements_exactly(self, n, amount):
        token = ERC20TokenType(n, total_supply=amount)
        state, responses = token.run(
            [
                (0, Operation("approve", (1, amount))),
                (1, Operation("transferFrom", (0, 1, amount))),
            ]
        )
        assert responses == [True, True]
        assert state.allowance(0, 1) == 0
        assert state.balance(1) == amount
