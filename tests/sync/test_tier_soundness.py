"""Soundness of tier sizing: the static bound dominates the oracle.

The sync layer sizes teams from the object type's ``spender_bound``
hook, a *static* estimate in Algorithm 2's sense — for ERC20 it reads the
allowance registers only (``potential_spenders``), never the balances.
Tier choice is sound iff that estimate is a **superset** of the semantic
enabled-spender oracle ``σ_q`` (Eq. 10) at every state: a team that
contains every enabled spender is a k'-consensus group with ``k' ≥ k(q)``,
so the team lane is always strong enough for the race it sequences.

These property tests machine-check the superset relation on random
states, at the frozen state and at the engine's live batch, and that the
component-level team inherits it.  Asset transfer's bound is ``µ(a)``;
a type whose owners are state has none.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.spenders import enabled_spenders, max_spenders
from repro.engine.mempool import PendingOp
from repro.objects.asset_transfer import AssetTransferType, DynamicOwnerATType
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.spec.operation import op
from repro.sync import component_team

ACCOUNTS = 6


@st.composite
def token_states(draw):
    balances = draw(
        st.lists(
            st.integers(0, 20), min_size=ACCOUNTS, max_size=ACCOUNTS
        )
    )
    cells = draw(
        st.dictionaries(
            st.tuples(
                st.integers(0, ACCOUNTS - 1), st.integers(0, ACCOUNTS - 1)
            ),
            st.integers(0, 10),
            max_size=12,
        )
    )
    return TokenState.create(balances, allowances=cells)


class TestStaticBoundIsSuperset:
    @settings(max_examples=200, deadline=None)
    @given(state=token_states())
    def test_bound_contains_oracle_on_every_account(self, state):
        token = ERC20TokenType(ACCOUNTS, initial_state=state)
        live = token.batch(state)
        live.apply(0, op("approve", 1, 0))  # a written row, unfrozen
        at_live = [token.spender_bound(live, a) for a in range(ACCOUNTS)]
        for account in range(ACCOUNTS):
            bound = token.spender_bound(state, account)
            oracle = enabled_spenders(state, account)
            assert bound is not None
            assert oracle <= bound, (
                f"account {account}: bound {sorted(bound)} misses "
                f"enabled spenders {sorted(oracle - bound)}"
            )
            assert enabled_spenders(live.state(), account) <= at_live[account]
        assert token.spender_bound(state, ACCOUNTS) is None

    @settings(max_examples=100, deadline=None)
    @given(state=token_states())
    def test_bound_size_dominates_the_consensus_number(self, state):
        """``max_a |bound(a)| >= max_a |σ_q(a)| = k(q)`` — a team sized by
        the bound is never weaker than the state's consensus number."""
        token = ERC20TokenType(ACCOUNTS, initial_state=state)
        largest_bound = max(
            len(token.spender_bound(state, account))
            for account in range(ACCOUNTS)
        )
        assert largest_bound >= max_spenders(state)

    @settings(max_examples=100, deadline=None)
    @given(
        state=token_states(),
        source=st.integers(0, ACCOUNTS - 1),
        spender=st.integers(0, ACCOUNTS - 1),
        rival=st.integers(0, ACCOUNTS - 1),
    )
    def test_component_team_contains_every_enabled_spender(
        self, state, source, spender, rival
    ):
        """A contended component's team covers σ_q of every account it
        contends on, plus the participants themselves."""
        token = ERC20TokenType(ACCOUNTS, initial_state=state)
        ops = [
            PendingOp(0, spender, op("transferFrom", source, rival, 1)),
            PendingOp(1, source, op("transfer", rival, 1)),
        ]
        fps = [token.footprint(p.pid, p.operation) for p in ops]
        team = component_team(ops, fps, state, token)
        assert team is not None
        assert enabled_spenders(state, source) <= team
        assert {spender, source} <= team


def test_asset_transfer_bound_is_the_owner_map():
    asset = AssetTransferType([5, 5, 5], [{0, 1}, {1}, {0, 2}])
    state = asset.initial_state()
    bounds = [asset.spender_bound(state, a) for a in range(4)]
    assert bounds == [*map(asset.owners, range(3)), None]


def test_dynamic_owners_have_no_bound():
    """µ is state here: after ``setOwners(0, [0, 2])`` process 2 spends
    from account 0, which the initial µ(0) = {0} would miss."""
    asset = DynamicOwnerATType([5, 5, 5], max_owners=2)
    state, _ = asset.apply(
        asset.initial_state(), 0, op("setOwners", 0, [0, 2])
    )
    assert asset.apply(state, 2, op("transfer", 0, 1, 3))[1]
    assert asset.spender_bound(state, 0) is None
