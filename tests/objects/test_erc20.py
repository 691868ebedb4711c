"""Tests for the ERC20 token object (Definition 3 / Algorithm 3).

Covers every branch of the Δ relation, the paper's Example 1 execution, and
the ERC20-standard deployment state.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError, UnknownOperationError
from repro.objects.erc20 import ERC20Token, ERC20TokenType, TokenState
from repro.objects.footprint import (
    EMPTY_FOOTPRINT,
    SUPPLY,
    allow,
    bal,
    footprint,
)
from repro.spec.operation import op


@pytest.fixture
def token() -> ERC20TokenType:
    return ERC20TokenType(3, total_supply=10, deployer=0)


class TestDeployment:
    def test_deployer_holds_supply(self, token):
        state = token.initial_state()
        assert state.balances == (10, 0, 0)

    def test_allowances_start_empty(self, token):
        state = token.initial_state()
        assert all(
            state.allowance(a, p) == 0 for a in range(3) for p in range(3)
        )

    def test_zero_state_default(self):
        token = ERC20TokenType(2)
        assert token.initial_state().balances == (0, 0)

    def test_explicit_initial_state(self):
        state = TokenState.create([1, 2], {(0, 1): 3})
        token = ERC20TokenType(2, initial_state=state)
        assert token.initial_state() is state

    def test_initial_state_and_supply_mutually_exclusive(self):
        with pytest.raises(InvalidArgumentError):
            ERC20TokenType(
                2, initial_state=TokenState.create([0, 0]), total_supply=5
            )

    def test_deployer_must_exist(self):
        with pytest.raises(InvalidArgumentError):
            ERC20TokenType(2, total_supply=5, deployer=7)

    def test_owner_bijection_is_identity(self, token):
        assert token.account_of(2) == 2


class TestTransfer:
    def test_success_branch(self, token):
        state, result = token.apply(
            token.initial_state(), 0, op("transfer", 1, 3)
        )
        assert result is True
        assert state.balances == (7, 3, 0)

    def test_allowances_untouched_by_transfer(self, token):
        start = TokenState.create([10, 0, 0], {(0, 2): 4})
        state, _ = token.apply(start, 0, op("transfer", 1, 3))
        assert state.allowance(0, 2) == 4

    def test_insufficient_balance_branch(self, token):
        start = token.initial_state()
        state, result = token.apply(start, 1, op("transfer", 0, 1))
        assert result is False
        assert state == start

    def test_exact_balance(self, token):
        state, result = token.apply(
            token.initial_state(), 0, op("transfer", 2, 10)
        )
        assert result is True
        assert state.balances == (0, 0, 10)

    def test_zero_value_transfer_succeeds(self, token):
        start = token.initial_state()
        state, result = token.apply(start, 1, op("transfer", 0, 0))
        assert result is True
        assert state == start

    def test_self_transfer_is_identity(self, token):
        # Sequential-update semantics (as in the Solidity contract): a
        # self-transfer of an affordable amount leaves the balance unchanged.
        state, result = token.apply(
            token.initial_state(), 0, op("transfer", 0, 4)
        )
        assert result is True
        assert state.balances == (10, 0, 0)


class TestApprove:
    def test_sets_allowance(self, token):
        state, result = token.apply(
            token.initial_state(), 0, op("approve", 2, 5)
        )
        assert result is True
        assert state.allowance(0, 2) == 5

    def test_overwrites_not_accumulates(self, token):
        state, _ = token.apply(token.initial_state(), 0, op("approve", 2, 5))
        state, _ = token.apply(state, 0, op("approve", 2, 3))
        assert state.allowance(0, 2) == 3

    def test_revocation_by_zero(self, token):
        state, _ = token.apply(token.initial_state(), 0, op("approve", 2, 5))
        state, result = token.apply(state, 0, op("approve", 2, 0))
        assert result is True
        assert state.allowance(0, 2) == 0

    def test_balances_untouched(self, token):
        state, _ = token.apply(token.initial_state(), 0, op("approve", 2, 5))
        assert state.balances == (10, 0, 0)

    def test_only_own_account_affected(self, token):
        state, _ = token.apply(token.initial_state(), 1, op("approve", 2, 5))
        assert state.allowance(1, 2) == 5
        assert state.allowance(0, 2) == 0

    def test_approve_succeeds_regardless_of_balance(self, token):
        # Bob (empty account) can still approve Charlie (the allowance just
        # cannot be used until the account is funded: Eq. 10's convention).
        state, result = token.apply(
            token.initial_state(), 1, op("approve", 2, 9)
        )
        assert result is True
        assert state.allowance(1, 2) == 9

    def test_self_approval_allowed(self, token):
        state, result = token.apply(
            token.initial_state(), 0, op("approve", 0, 5)
        )
        assert result is True
        assert state.allowance(0, 0) == 5


class TestTransferFrom:
    @pytest.fixture
    def approved_state(self, token) -> TokenState:
        # Alice holds 10 and approved Charlie for 5.
        return TokenState.create([10, 0, 0], {(0, 2): 5})

    def test_success_branch(self, token, approved_state):
        state, result = token.apply(
            approved_state, 2, op("transferFrom", 0, 1, 4)
        )
        assert result is True
        assert state.balances == (6, 4, 0)
        assert state.allowance(0, 2) == 1

    def test_insufficient_allowance_branch(self, token, approved_state):
        state, result = token.apply(
            approved_state, 2, op("transferFrom", 0, 1, 6)
        )
        assert result is False
        assert state == approved_state

    def test_insufficient_balance_branch(self, token):
        # Allowance 5 but balance only 3 (the Example 1 failure case).
        start = TokenState.create([0, 3, 0], {(1, 2): 5})
        state, result = token.apply(start, 2, op("transferFrom", 1, 2, 5))
        assert result is False
        assert state == start

    def test_no_allowance_branch(self, token):
        start = TokenState.create([10, 0, 0])
        state, result = token.apply(start, 1, op("transferFrom", 0, 1, 1))
        assert result is False
        assert state == start

    def test_full_allowance_consumed(self, token, approved_state):
        state, result = token.apply(
            approved_state, 2, op("transferFrom", 0, 2, 5)
        )
        assert result is True
        assert state.allowance(0, 2) == 0
        assert state.balances == (5, 0, 5)

    def test_zero_value_always_succeeds(self, token):
        start = TokenState.create([10, 0, 0])
        state, result = token.apply(start, 1, op("transferFrom", 0, 2, 0))
        assert result is True
        assert state == start

    def test_other_allowances_untouched(self, token):
        start = TokenState.create([10, 0, 0], {(0, 1): 4, (0, 2): 5})
        state, _ = token.apply(start, 2, op("transferFrom", 0, 1, 2))
        assert state.allowance(0, 1) == 4
        assert state.allowance(0, 2) == 3

    def test_owner_needs_self_allowance_for_transfer_from(self, token):
        # Definition 3 makes no owner exception in transferFrom.
        start = TokenState.create([10, 0, 0])
        _, result = token.apply(start, 0, op("transferFrom", 0, 1, 1))
        assert result is False


class TestReads:
    def test_balance_of(self, token):
        _, result = token.apply(token.initial_state(), 2, op("balanceOf", 0))
        assert result == 10

    def test_allowance_read(self, token):
        state = TokenState.create([10, 0, 0], {(0, 2): 5})
        _, result = token.apply(state, 1, op("allowance", 0, 2))
        assert result == 5

    def test_total_supply(self, token):
        state = TokenState.create([4, 5, 1])
        _, result = token.apply(state, 0, op("totalSupply"))
        assert result == 10

    def test_reads_are_read_only(self, token):
        state = TokenState.create([4, 5, 1], {(0, 1): 2})
        for operation in (
            op("balanceOf", 1),
            op("allowance", 0, 1),
            op("totalSupply"),
        ):
            assert token.is_read_only(state, 2, operation)


class TestValidation:
    def test_unknown_operation(self, token):
        from repro.errors import UnknownOperationError

        with pytest.raises(UnknownOperationError):
            token.apply(token.initial_state(), 0, op("mint", 5))

    def test_unknown_account(self, token):
        with pytest.raises(InvalidArgumentError):
            token.apply(token.initial_state(), 0, op("transfer", 7, 1))

    def test_unknown_pid(self, token):
        with pytest.raises(InvalidArgumentError):
            token.apply(token.initial_state(), 9, op("transfer", 1, 1))

    def test_negative_value(self, token):
        with pytest.raises(InvalidArgumentError):
            token.apply(token.initial_state(), 0, op("transfer", 1, -1))

    def test_bool_value_rejected(self, token):
        with pytest.raises(InvalidArgumentError):
            token.apply(token.initial_state(), 0, op("transfer", 1, True))

    def test_extensions_disabled_by_default(self, token):
        from repro.errors import UnknownOperationError

        with pytest.raises(UnknownOperationError):
            token.apply(token.initial_state(), 0, op("increaseAllowance", 1, 2))


class TestExtensions:
    @pytest.fixture
    def ext_token(self) -> ERC20TokenType:
        return ERC20TokenType(2, total_supply=5, with_extensions=True)

    def test_increase_allowance(self, ext_token):
        state, result = ext_token.apply(
            ext_token.initial_state(), 0, op("increaseAllowance", 1, 3)
        )
        assert result is True
        assert state.allowance(0, 1) == 3
        state, _ = ext_token.apply(state, 0, op("increaseAllowance", 1, 2))
        assert state.allowance(0, 1) == 5

    def test_decrease_allowance(self, ext_token):
        state, _ = ext_token.apply(
            ext_token.initial_state(), 0, op("increaseAllowance", 1, 3)
        )
        state, result = ext_token.apply(state, 0, op("decreaseAllowance", 1, 2))
        assert result is True
        assert state.allowance(0, 1) == 1

    def test_decrease_below_zero_fails(self, ext_token):
        state = ext_token.initial_state()
        state, result = ext_token.apply(state, 0, op("decreaseAllowance", 1, 1))
        assert result is False


class TestExample1:
    """The paper's Example 1, step by step (q0 .. q4)."""

    def test_full_trace(self, token):
        q0 = token.initial_state()
        assert q0.balances == (10, 0, 0)

        # Alice sends Bob 3 tokens.
        q1, r1 = token.apply(q0, 0, op("transfer", 1, 3))
        assert r1 is True
        assert q1.balances == (7, 3, 0)

        # Bob approves Charlie for up to 5.
        q2, r2 = token.apply(q1, 1, op("approve", 2, 5))
        assert r2 is True
        assert [q2.allowance(1, p) for p in range(3)] == [0, 0, 5]

        # Charlie tries to take 5 from Bob: balance 3 is insufficient.
        q3, r3 = token.apply(q2, 2, op("transferFrom", 1, 2, 5))
        assert r3 is False
        assert q3 == q2

        # Charlie moves 1 token from Bob to Alice.
        q4, r4 = token.apply(q3, 2, op("transferFrom", 1, 0, 1))
        assert r4 is True
        assert q4.balances == (8, 2, 0)
        assert q4.allowance(1, 2) == 4


class TestRuntimeERC20Token:
    def test_call_builders(self):
        token = ERC20Token(3, total_supply=10)
        assert token.invoke(0, token.transfer(1, 3).operation) is True
        assert token.invoke(1, token.approve(2, 5).operation) is True
        assert token.invoke(2, token.allowance(1, 2).operation) == 5
        assert token.invoke(0, token.balance_of(1).operation) == 3
        assert token.invoke(0, token.total_supply().operation) == 10

    def test_allowance_builders_need_the_extensions(self):
        plain = ERC20Token(2, total_supply=4)
        with pytest.raises(UnknownOperationError):
            plain.invoke(0, plain.increase_allowance(1, 2).operation)
        token = ERC20Token(2, total_supply=4, with_extensions=True)
        assert token.invoke(0, token.increase_allowance(1, 3).operation) is True
        assert token.invoke(0, token.decrease_allowance(1, 1).operation) is True
        assert token.invoke(1, token.allowance(0, 1).operation) == 2


class TestTokenState:
    def test_create_sparse_allowances(self):
        state = TokenState.create([1, 2, 3], {(0, 2): 7})
        assert state.allowance(0, 2) == 7
        assert state.allowance(2, 0) == 0

    def test_create_validates_balances(self):
        with pytest.raises(InvalidArgumentError):
            TokenState.create([-1, 0])

    def test_create_validates_allowance_indices(self):
        with pytest.raises(InvalidArgumentError):
            TokenState.create([1, 1], {(0, 5): 1})

    def test_create_validates_allowance_values(self):
        with pytest.raises(InvalidArgumentError):
            TokenState.create([1, 1], {(0, 1): -2})

    def test_deploy_validates(self):
        with pytest.raises(InvalidArgumentError):
            TokenState.deploy(2, -1)

    def test_hashable(self):
        a = TokenState.create([1, 2], {(0, 1): 3})
        b = TokenState.create([1, 2], {(0, 1): 3})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_functional_updates_do_not_mutate(self):
        state = TokenState.create([5, 0])
        state.with_transfer(0, 1, 2)
        state.with_allowance(0, 1, 9)
        assert state.balances == (5, 0)
        assert state.allowance(0, 1) == 0

    def test_with_allowance_shares_every_untouched_map(self):
        state = TokenState.create([5, 0, 0, 0], {(0, 1): 2, (2, 3): 4})
        new = state.with_allowance(2, 0, 9)
        assert [new.allowance(2, p) for p in range(4)] == [9, 0, 0, 4]
        assert new.balances is state.balances
        assert _maps(new)[0] is _maps(state)[0]
        assert set(_maps(new)) == {0, 2}  # accounts 1 and 3 hold no map

    def test_with_transfer_from_shares_every_untouched_map(self):
        state = TokenState.create([5, 0, 0], {(0, 1): 3, (2, 0): 1})
        new = state.with_transfer_from(1, 0, 2, 2)
        assert new.balances == (3, 0, 2)
        assert [new.allowance(0, p) for p in range(3)] == [0, 1, 0]
        assert _maps(new)[2] is _maps(state)[2]
        assert set(_maps(new)) == {0, 2}

    def test_deploy_stores_no_map(self):
        state = TokenState.deploy(64, 1000)
        assert _maps(state) == {}
        assert state.allowances_of(5) == {}

    def test_create_builds_one_map_per_allowance_bearing_account(self):
        state = TokenState.create(
            [1] * 8, {(0, 1): 3, (0, 2): 1, (5, 0): 2, (7, 7): 4, (3, 1): 0}
        )
        assert set(_maps(state)) == {0, 5, 7}
        assert state.allowances_of(0) == {1: 3, 2: 1}
        row = [state.allowance(0, p) for p in range(8)]
        assert row == [0, 3, 1, 0, 0, 0, 0, 0]

    def test_writing_zero_removes_the_entry(self):
        state = TokenState.create([5, 0, 0], {(0, 2): 1})
        revoked = state.with_allowance(0, 2, 0)
        assert _maps(revoked) == {}
        assert revoked == TokenState.create([5, 0, 0])
        again = state.with_allowance(1, 0, 3).with_allowance(1, 0, 0)
        assert _maps(again) == _maps(state)
        assert again == state

    def test_a_map_read_is_read_only(self):
        state = TokenState.create([5, 0], {(0, 1): 2})
        with pytest.raises(TypeError):
            state.allowances_of(0)[1] = 9  # type: ignore[index]
        with pytest.raises(TypeError):
            state.allowances_of(1)[0] = 9  # type: ignore[index]
        assert state.allowance(0, 1) == 2 and state.allowance(1, 0) == 0

    def test_equal_values_have_one_form_for_eq_hash_and_repr(self):
        """Set then zeroed, never set, a 0 given to ``create``, and the
        same cells written in another order: one value, one form."""
        never = TokenState.create([4, 0, 0], {(0, 1): 3, (2, 0): 1})
        zeroed = (
            TokenState.create([4, 0, 0], {(2, 0): 1})
            .with_allowance(1, 2, 5)
            .with_allowance(0, 1, 3)
            .with_allowance(1, 2, 0)
        )
        given_zero = TokenState.create(
            [4, 0, 0], {(2, 0): 1, (1, 1): 0, (0, 1): 3}
        )
        for other in (zeroed, given_zero):
            _assert_same_value(never, other)
        assert repr(never.allowances) == "Allowances({(0, 1): 3, (2, 0): 1})"
        assert never != TokenState.create([4, 0, 0], {(0, 1): 3})


def _maps(state: TokenState) -> dict:
    """α's stored maps, ``{account: {spender: amount}}`` — for the sharing
    checks only; every value check reads ``allowance``."""
    return state.allowances._rows


class _DenseReference:
    """Definition 3 on the representation the sparse state replaced: a
    list-of-lists grid mutated in place, n × n cells, 0 for "no
    allowance"."""

    def __init__(self, balances):
        self.balances = list(balances)
        self.grid = [[0] * len(balances) for _ in balances]

    def state(self) -> TokenState:
        """The grid as a state, every cell (zeros too) handed to
        ``create``."""
        return TokenState.create(
            self.balances,
            {
                (account, spender): amount
                for account, row in enumerate(self.grid)
                for spender, amount in enumerate(row)
            },
        )

    def assert_cells(self, state) -> None:
        """``state`` (a ``TokenState`` or a live batch) reads every α
        cell and every balance as the grid holds it."""
        n = len(self.grid)
        cells = [[state.allowance(a, p) for p in range(n)] for a in range(n)]
        assert cells == self.grid
        assert [state.balance(a) for a in range(n)] == self.balances
        for account, row in enumerate(self.grid):
            positives = {p: amount for p, amount in enumerate(row) if amount}
            assert state.allowances_of(account) == positives

    def apply(self, pid, name, args):
        balances, grid = self.balances, self.grid
        if name == "transfer":
            dest, value = args
            if balances[pid] < value:
                return False
            balances[pid] -= value
            balances[dest] += value
        elif name == "transferFrom":
            source, dest, value = args
            if balances[source] < value or grid[source][pid] < value:
                return False
            balances[source] -= value
            balances[dest] += value
            grid[source][pid] -= value
        else:
            spender, value = args
            if name == "approve":
                grid[pid][spender] = value
            elif name == "increaseAllowance":
                grid[pid][spender] += value
            else:
                assert name == "decreaseAllowance"
                if grid[pid][spender] < value:
                    return False
                grid[pid][spender] -= value
        return True


_N = 4
_account = st.integers(0, _N - 1)
_value = st.integers(0, 6)
_erc20_calls = st.tuples(
    _account,
    st.one_of(
        st.tuples(
            st.sampled_from(
                (
                    "transfer",
                    "approve",
                    "increaseAllowance",
                    "decreaseAllowance",
                )
            ),
            st.tuples(_account, _value),
        ),
        st.tuples(
            st.just("transferFrom"), st.tuples(_account, _account, _value)
        ),
    ),
)


def _assert_same_value(state, other) -> None:
    assert state == other and other == state
    assert hash(state) == hash(other)
    assert repr(state) == repr(other)


#: Invalid invocations for the batch to reject mid-run: a foreign name,
#: an unknown caller, an out-of-range account, a negative amount.
_invalid_calls = st.sampled_from(
    (
        (0, op("mint", 1)),
        (_N, op("transfer", 0, 1)),
        (1, op("transferFrom", _N, 0, 1)),
        (2, op("approve", 1, -1)),
    )
)

#: Every way an allowance returns to 0, in one run: ``approve(p, 0)`` of a
#: set allowance, of an unset one, ``decreaseAllowance`` to 0, and a
#: ``transferFrom`` that drains it — each followed by a write elsewhere.
_TO_ZERO = [
    (0, ("approve", (1, 3))),
    (0, ("approve", (1, 0))),
    (0, ("approve", (2, 0))),
    (1, ("increaseAllowance", (3, 2))),
    (1, ("decreaseAllowance", (3, 2))),
    (0, ("approve", (3, 4))),
    (3, ("transferFrom", (0, 2, 4))),
    (2, ("approve", (0, 1))),
]


@settings(max_examples=200, deadline=None)
@given(
    balances=st.lists(st.integers(0, 12), min_size=_N, max_size=_N),
    allowed=st.dictionaries(
        st.tuples(_account, _account), st.integers(0, 6), max_size=3
    ),
    calls=st.lists(_erc20_calls, max_size=40),
    cuts=st.sets(st.integers(0, 40), max_size=4),
    invalid=st.tuples(st.integers(0, 40), _invalid_calls),
)
@example(
    balances=[10, 0, 0, 0],
    allowed={},
    calls=_TO_ZERO,
    cuts={1, 4, 6},
    invalid=(40, (0, op("mint", 1))),
)
def test_sparse_state_equals_the_dense_reference(
    balances, allowed, calls, cuts, invalid
):
    """The per-op ``apply`` fold equals the dense reference, and a batch
    running the same calls equals that fold: every response, every α cell
    (read through ``allowance`` and ``allowances_of``) of the fold and of
    the live batch after every op, and at every cut point the batch's
    ``state()``, equal in value, hash and repr to the reference's state;
    a snapshot is unchanged by later applies; a snapshot shares every map
    not written since the one before, the input state first, so maps no
    op wrote are still the input state's; and an invalid op raises,
    leaves ``state()`` as it was, and the batch keeps working."""
    start = TokenState.create(balances, allowed)
    token = ERC20TokenType(_N, initial_state=start, with_extensions=True)
    reference = _DenseReference(balances)
    for (account, spender), amount in allowed.items():
        reference.grid[account][spender] = amount
    _assert_same_value(start, reference.state())
    batch = token.batch(start)
    state, snapshots = start, [(start, start)]
    since = set()  # accounts whose α map was written since the last snapshot
    bad_at, (bad_pid, bad_operation) = invalid

    def cut():
        snapshot, previous = batch.state(), snapshots[-1][0]
        for account in set(range(_N)) - since:
            assert _maps(snapshot).get(account) is _maps(previous).get(account)
        since.clear()
        _assert_same_value(snapshot, reference.state())
        snapshots.append((snapshot, state))

    for index, (pid, (name, args)) in enumerate(calls):
        if index == bad_at:
            before = batch.state()
            with pytest.raises((InvalidArgumentError, UnknownOperationError)):
                batch.apply(bad_pid, bad_operation)
            assert batch.state() is before
        operation = op(name, *args)
        state, result = token.apply(state, pid, operation)
        assert result is reference.apply(pid, name, args)
        _assert_same_value(state, reference.state())
        reference.assert_cells(state)
        assert batch.apply(pid, operation) is result
        reference.assert_cells(batch)
        if name != "transfer":
            since.add(args[0] if name == "transferFrom" else pid)
        if index in cuts:
            cut()
    cut()
    for snapshot, then in snapshots:
        _assert_same_value(snapshot, then)


# -- the footprint against its list-based construction ---------------------


def reference_footprint(token, pid, operation):
    """``ERC20TokenType.footprint`` as it was written before it built each
    kind's frozenset directly — kept here as the specification."""
    token.validate_name(operation)
    token._check_process(pid)
    name, args = operation.name, operation.args
    if name == "transfer":
        dest, value = args
        source = token.account_of(pid)
        if value == 0:
            return EMPTY_FOOTPRINT
        if dest == source:
            return footprint(observes=[bal(source)])
        return footprint(observes=[bal(source)], adds=[bal(source), bal(dest)])
    if name == "transferFrom":
        source, dest, value = args
        if value == 0:
            return EMPTY_FOOTPRINT
        cell = allow(source, pid)
        if dest == source:
            return footprint(observes=[bal(source), cell], adds=[cell])
        return footprint(
            observes=[bal(source), cell],
            adds=[bal(source), bal(dest), cell],
        )
    if name == "approve":
        spender, _value = args
        return footprint(sets=[allow(token.account_of(pid), spender)])
    if name == "balanceOf":
        return footprint(observes=[bal(args[0])])
    if name == "allowance":
        return footprint(observes=[allow(args[0], args[1])])
    if name == "totalSupply":
        return footprint(observes=[SUPPLY])
    spender, delta = args
    if delta == 0:
        return EMPTY_FOOTPRINT
    cell = allow(token.account_of(pid), spender)
    if name == "increaseAllowance":
        return footprint(adds=[cell])
    return footprint(observes=[cell], adds=[cell])


def _footprint_or_error(build, token, pid, operation):
    try:
        return build(token, pid, operation)
    except (InvalidArgumentError, UnknownOperationError) as error:
        return type(error), str(error)


@settings(max_examples=300, deadline=None)
@given(
    extensions=st.booleans(),
    # One pid past the range: the footprint rejects it as apply does.
    call=st.tuples(st.integers(0, _N), _erc20_calls.map(lambda c: c[1])),
)
def test_footprint_equals_the_list_based_construction(extensions, call):
    """All eight operations, extensions on and off; the small account and
    value ranges make value 0, self-transfers and ``pid == source`` (a
    transferFrom on the caller's own account) common draws."""
    token = ERC20TokenType(_N, with_extensions=extensions)
    pid, (name, args) = call
    operation = op(name, *args)
    built = _footprint_or_error(ERC20TokenType.footprint, token, pid, operation)
    expected = _footprint_or_error(reference_footprint, token, pid, operation)
    assert built == expected
    if isinstance(expected, tuple):
        return
    assert hash(built) == hash(expected)
    assert repr(built) == repr(expected)


@pytest.mark.parametrize(
    "pid,operation",
    [
        (1, op("transfer", 2, 0)),  # value 0
        (1, op("transfer", 1, 3)),  # self-transfer
        (1, op("transferFrom", 1, 2, 3)),  # pid == source
        (1, op("transferFrom", 2, 2, 3)),  # source == dest
        (1, op("transferFrom", 1, 1, 3)),  # pid == source == dest
        (1, op("transferFrom", 2, 0, 0)),  # value 0
        (1, op("approve", 1, 0)),  # self-approval, value 0
        (1, op("allowance", 1, 1)),
        (1, op("increaseAllowance", 2, 0)),  # delta 0
        (1, op("decreaseAllowance", 1, 2)),
    ],
)
def test_degenerate_footprints_match_the_reference(pid, operation):
    token = ERC20TokenType(_N, with_extensions=True)
    assert token.footprint(pid, operation) == reference_footprint(
        token, pid, operation
    )


# -- interned balance cells --------------------------------------------------

#: Account arguments as a footprint may meet them: in range, out of range,
#: negative, ``bool``, and not an int at all.
_any_account = st.one_of(
    st.integers(-2, _N + 1),
    st.booleans(),
    st.sampled_from([1.0, 2.5, "1", None]),
)
_any_call = st.one_of(
    st.tuples(
        st.sampled_from(
            ("transfer", "approve", "increaseAllowance", "decreaseAllowance")
        ),
        st.tuples(_any_account, _value),
    ),
    st.tuples(
        st.just("transferFrom"),
        st.tuples(_any_account, _any_account, _value),
    ),
    st.tuples(st.just("balanceOf"), st.tuples(_any_account)),
    st.tuples(st.just("allowance"), st.tuples(_any_account, _any_account)),
    st.tuples(st.just("totalSupply"), st.just(())),
)


@settings(max_examples=400, deadline=None)
@given(
    pid=st.one_of(st.integers(0, _N), st.booleans()),
    calls=st.lists(_any_call, min_size=1, max_size=8),
)
def test_interned_cells_keep_every_footprint_value(pid, calls):
    """Every method, on any account argument: the footprint equals the
    reference, which builds each cell with ``bal()`` / ``allow()``.  A
    cell found by value (``True`` or ``1.0`` for account 1) is the
    interned one, equal to the built one and hashing alike."""
    token = ERC20TokenType(_N, with_extensions=True)
    for name, args in calls:
        operation = op(name, *args)
        built = _footprint_or_error(
            ERC20TokenType.footprint, token, pid, operation
        )
        expected = _footprint_or_error(
            reference_footprint, token, pid, operation
        )
        assert built == expected
        if not isinstance(expected, tuple):
            assert hash(built) == hash(expected)


def test_an_accounts_read_footprint_is_built_once():
    """``balanceOf`` of one account, by any caller, and a self-transfer
    of it return one shared footprint; a transfer observes its set."""
    token = ERC20TokenType(_N)
    read = token.footprint(0, op("balanceOf", 2))
    assert token.footprint(3, op("balanceOf", 2)) is read
    assert token.footprint(2, op("transfer", 2, 5)) is read
    assert token.footprint(2, op("transfer", 1, 5)).observes is read.observes
    assert token.footprint(0, op("balanceOf", 1)) is not read
    supply = token.footprint(1, op("totalSupply"))
    assert ERC20TokenType(2).footprint(0, op("totalSupply")) is supply


def test_no_allowance_cell_is_cached():
    """Allowance cells are built per op: equal, never the same object."""
    token = ERC20TokenType(_N, with_extensions=True)
    for pid, operation, kind in [
        (1, op("approve", 2, 5), "sets"),
        (0, op("allowance", 1, 2), "observes"),
        (2, op("increaseAllowance", 2, 1), "adds"),
    ]:
        first, again = (
            getattr(token.footprint(pid, operation), kind) for _ in range(2)
        )
        assert first == again and first is not again
        assert next(iter(first)) is not next(iter(again))
    spend = op("transferFrom", 1, 3, 1)
    cells = [
        [loc for loc in token.footprint(2, spend).adds if loc[0] == "allow"]
        for _ in range(2)
    ]
    assert cells[0] == cells[1] == [allow(1, 2)]
    assert cells[0][0] is not cells[1][0]
