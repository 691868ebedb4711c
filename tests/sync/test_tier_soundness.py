"""Soundness of tier sizing: the static bound dominates the oracle.

The planner sizes teams from :func:`repro.sync.bounds.spender_bound`, a
*static* estimate in Algorithm 2's sense — for ERC20 it reads the
allowance registers only (``potential_spenders``), never the balances.
Tier choice is sound iff that estimate is a **superset** of the semantic
enabled-spender oracle ``σ_q`` (Eq. 10) at every state: a team that
contains every enabled spender is a k'-consensus group with ``k' ≥ k(q)``,
so the team lane is always strong enough for the race it sequences.

These property tests machine-check the superset relation on random
states, and that the component-level team inherits it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.spenders import enabled_spenders, max_spenders
from repro.engine.mempool import PendingOp
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.spec.operation import op
from repro.sync import component_team, spender_bound

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
        for account in range(ACCOUNTS):
            bound = spender_bound(token, state, account)
            oracle = enabled_spenders(state, account)
            assert bound is not None
            assert oracle <= bound, (
                f"account {account}: bound {sorted(bound)} misses "
                f"enabled spenders {sorted(oracle - bound)}"
            )

    @settings(max_examples=100, deadline=None)
    @given(state=token_states())
    def test_bound_size_dominates_the_consensus_number(self, state):
        """``max_a |bound(a)| >= max_a |σ_q(a)| = k(q)`` — a team sized by
        the bound is never weaker than the state's consensus number."""
        token = ERC20TokenType(ACCOUNTS, initial_state=state)
        largest_bound = max(
            len(spender_bound(token, state, account))
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
