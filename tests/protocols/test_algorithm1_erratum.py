"""The U-predicate erratum (README.md, Reproduction note 1).

The paper's Eq. 13 predicate ``U`` does not require a spender's allowance to
be covered by the balance.  With balance 10 and a single spender allowance of
11, ``U`` holds (the ``|σ| ≤ 2`` branch) — yet the spender's ``transferFrom``
fails *even running solo*, no allowance is ever zeroed, and Algorithm 1 then
returns the owner's register, which was never written: a validity violation.

These tests exhibit the counterexample mechanically and verify the
strengthened predicate ``U*`` excludes exactly such states.
"""

from __future__ import annotations

import pytest

from repro.analysis.partition import (
    is_synchronization_state,
    unique_transfer,
    unique_transfer_strict,
)
from repro.objects.erc20 import TokenState
from repro.protocols.base import consensus_checks
from repro.protocols.token_consensus import algorithm1_system
from repro.runtime.executor import run_system
from repro.runtime.explorer import ScheduleExplorer
from repro.runtime.scheduler import SoloScheduler


def erratum_state() -> TokenState:
    """Balance 10, one spender with allowance 11 — literal U holds, U* not."""
    return TokenState.create([10, 0], {(0, 1): 11})


class TestPredicateGap:
    def test_literal_u_accepts(self):
        assert unique_transfer(erratum_state(), 0)

    def test_strict_u_rejects(self):
        assert not unique_transfer_strict(erratum_state(), 0)

    def test_sk_membership_differs(self):
        state = erratum_state()
        assert is_synchronization_state(state, 2, strict=False)
        assert not is_synchronization_state(state, 2, strict=True)


class TestCounterexample:
    def test_solo_spender_violates_validity(self):
        proposals = {0: "owner-value", 1: "spender-value"}
        system = algorithm1_system(
            proposals, state=erratum_state(), strict=False
        )
        result = run_system(system, SoloScheduler([1, 0]))
        # The spender's transferFrom fails (11 > 10); it scans allowances,
        # finds none zero, and reads the owner's register — still ⊥.
        assert result.decisions[1] is None  # decided a non-proposal!
        assert result.decisions[1] not in proposals.values()

    def test_exhaustive_exploration_finds_violations(self):
        proposals = {0: "a", 1: "b"}
        factory = lambda: algorithm1_system(
            proposals, state=erratum_state(), strict=False
        )
        report = ScheduleExplorer(factory).explore(
            checks=[consensus_checks(proposals)]
        )
        assert not report.ok
        messages = " ".join(str(v) for v in report.violations)
        assert "validity" in messages

    def test_three_spender_variant(self):
        # Pairwise-sum branch satisfied (11 + 11 > 10) yet allowances exceed
        # the balance: same failure with |σ| = 3.
        state = TokenState.create([10, 0, 0], {(0, 1): 11, (0, 2): 11})
        assert unique_transfer(state, 0)
        assert not unique_transfer_strict(state, 0)
        proposals = {0: "a", 1: "b", 2: "c"}
        factory = lambda: algorithm1_system(
            proposals, state=state, strict=False
        )
        report = ScheduleExplorer(factory).explore(
            checks=[consensus_checks(proposals)]
        )
        assert not report.ok


class TestStrengthenedPredicateRepairs:
    def test_strict_construction_rejects_bad_state(self):
        from repro.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            algorithm1_system(
                {0: "a", 1: "b"}, state=erratum_state(), strict=True
            )

    def test_comparable_strict_state_is_correct(self):
        # Same shape with allowance capped at the balance: exhaustively OK.
        state = TokenState.create([10, 0], {(0, 1): 10})
        proposals = {0: "a", 1: "b"}
        factory = lambda: algorithm1_system(proposals, state=state, strict=True)
        report = ScheduleExplorer(factory).explore(
            checks=[consensus_checks(proposals)]
        )
        assert report.ok
        assert report.outcomes == {"a", "b"}
