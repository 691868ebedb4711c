"""Tests for the commutativity analyzer (Theorem 3's case analysis)."""

from __future__ import annotations

from itertools import combinations

from repro.analysis.commutativity import (
    Invocation,
    PairKind,
    analyze_pair,
    audit_static_kinds,
    erc20_case_label,
)
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.spec.operation import op


def inv(pid: int, operation) -> Invocation:
    return Invocation(pid, operation)


class TestBaseCases:
    """The pairs Theorem 3 dismisses before its case enumeration."""

    def setup_method(self):
        self.token = ERC20TokenType(4, total_supply=0)
        # Rich state: two funded accounts, two spenders on account 0.
        self.state = TokenState.create(
            [10, 10, 0, 0], {(0, 2): 10, (0, 3): 10}
        )

    def test_read_only_pairs(self):
        analysis = analyze_pair(
            self.token,
            self.state,
            inv(1, op("balanceOf", 0)),
            inv(2, op("transferFrom", 0, 1, 5)),
        )
        assert analysis.kind in (PairKind.READ_ONLY, PairKind.COMMUTE)

    def test_approve_approve_commute(self):
        analysis = analyze_pair(
            self.token,
            self.state,
            inv(0, op("approve", 2, 7)),
            inv(1, op("approve", 3, 7)),
        )
        assert analysis.kind is PairKind.COMMUTE

    def test_approve_transfer_commute(self):
        analysis = analyze_pair(
            self.token,
            self.state,
            inv(0, op("approve", 2, 7)),
            inv(1, op("transfer", 2, 5)),
        )
        assert analysis.kind is PairKind.COMMUTE

    def test_transfers_from_distinct_accounts_commute(self):
        analysis = analyze_pair(
            self.token,
            self.state,
            inv(0, op("transfer", 2, 5)),
            inv(1, op("transfer", 3, 5)),
        )
        assert analysis.kind is PairKind.COMMUTE


class TestCase1TransferTransfer:
    """Case 1: two transfer invocations conflict only when one funds the
    other's otherwise-failing transfer."""

    def setup_method(self):
        self.token = ERC20TokenType(3, total_supply=0)

    def test_funding_conflict(self):
        # p0 sends 5 to p1; p1's transfer of 5 only succeeds after it.
        state = TokenState.create([5, 0, 0])
        analysis = analyze_pair(
            self.token,
            state,
            inv(0, op("transfer", 1, 5)),
            inv(1, op("transfer", 2, 5)),
        )
        # The orders differ, but p1's transfer is read-only (fails) when
        # first: the proof treats this as the read-only case.
        assert analysis.kind is PairKind.READ_ONLY
        assert analysis.state_fs != analysis.state_sf

    def test_affordable_transfers_commute(self):
        state = TokenState.create([5, 5, 0])
        analysis = analyze_pair(
            self.token,
            state,
            inv(0, op("transfer", 1, 2)),
            inv(1, op("transfer", 2, 2)),
        )
        assert analysis.kind is PairKind.COMMUTE


class TestCase2TransferFromTransferFrom:
    """Case 2: the genuine conflict — two enabled spenders racing on one
    account whose balance covers only one transfer."""

    def setup_method(self):
        self.token = ERC20TokenType(4, total_supply=0)

    def test_same_source_race_conflicts(self):
        state = TokenState.create([10, 0, 0, 0], {(0, 2): 10, (0, 3): 10})
        analysis = analyze_pair(
            self.token,
            state,
            inv(2, op("transferFrom", 0, 1, 10)),
            inv(3, op("transferFrom", 0, 1, 10)),
        )
        assert analysis.kind is PairKind.CONFLICT
        assert analysis.responses_fs == (True, False)
        assert analysis.responses_sf == (False, True)

    def test_different_sources_commute(self):
        state = TokenState.create([10, 10, 0, 0], {(0, 2): 10, (1, 3): 10})
        analysis = analyze_pair(
            self.token,
            state,
            inv(2, op("transferFrom", 0, 2, 5)),
            inv(3, op("transferFrom", 1, 3, 5)),
        )
        assert analysis.kind is PairKind.COMMUTE

    def test_sufficient_balance_commutes(self):
        state = TokenState.create([10, 0, 0, 0], {(0, 2): 5, (0, 3): 5})
        analysis = analyze_pair(
            self.token,
            state,
            inv(2, op("transferFrom", 0, 1, 5)),
            inv(3, op("transferFrom", 0, 1, 5)),
        )
        assert analysis.kind is PairKind.COMMUTE

    def test_non_enabled_spender_cannot_conflict(self):
        # The proof's p_w argument: a process outside σ cannot conflict — its
        # failing transferFrom is equivalent to a read-only step (here it even
        # commutes outright with the enabled spender's transfer).
        state = TokenState.create([10, 0, 0, 0], {(0, 2): 10})
        analysis = analyze_pair(
            self.token,
            state,
            inv(3, op("transferFrom", 0, 3, 10)),  # p3 has no allowance
            inv(2, op("transferFrom", 0, 2, 10)),
        )
        assert analysis.kind is not PairKind.CONFLICT
        assert self.token.is_read_only(state, 3, op("transferFrom", 0, 3, 10))


class TestCase3TransferVsTransferFrom:
    def setup_method(self):
        self.token = ERC20TokenType(3, total_supply=0)

    def test_same_source_race_conflicts(self):
        state = TokenState.create([10, 0, 0], {(0, 2): 10})
        analysis = analyze_pair(
            self.token,
            state,
            inv(0, op("transfer", 1, 10)),
            inv(2, op("transferFrom", 0, 1, 10)),
        )
        assert analysis.kind is PairKind.CONFLICT

    def test_other_source_commutes(self):
        state = TokenState.create([10, 10, 0], {(1, 2): 10})
        analysis = analyze_pair(
            self.token,
            state,
            inv(0, op("transfer", 2, 5)),
            inv(2, op("transferFrom", 1, 2, 5)),
        )
        assert analysis.kind is PairKind.COMMUTE


class TestCase4ApproveVsTransferFrom:
    def setup_method(self):
        self.token = ERC20TokenType(3, total_supply=0)

    def test_approve_enabling_pending_spender_conflicts(self):
        # p2 not yet enabled; p0's approve hands it the allowance: the
        # transferFrom succeeds only after the approve.
        state = TokenState.create([10, 0, 0])
        analysis = analyze_pair(
            self.token,
            state,
            inv(0, op("approve", 2, 10)),
            inv(2, op("transferFrom", 0, 1, 10)),
        )
        # transferFrom before approve is read-only (fails): the proof's
        # first sub-case.
        assert analysis.kind is PairKind.READ_ONLY

    def test_approve_on_already_enabled_spender_conflicts(self):
        # The proof's second sub-case: p2 already enabled; the two orders
        # genuinely differ in final state (allowance accounting).
        state = TokenState.create([10, 0, 0], {(0, 2): 10})
        analysis = analyze_pair(
            self.token,
            state,
            inv(0, op("approve", 2, 3)),
            inv(2, op("transferFrom", 0, 1, 10)),
        )
        assert analysis.kind is PairKind.CONFLICT
        assert analysis.state_fs != analysis.state_sf

    def test_approve_for_other_account_commutes(self):
        state = TokenState.create([10, 10, 0], {(1, 2): 10})
        analysis = analyze_pair(
            self.token,
            state,
            inv(0, op("approve", 2, 3)),
            inv(2, op("transferFrom", 1, 0, 5)),
        )
        assert analysis.kind is PairKind.COMMUTE


class TestConflicts:
    def test_conflicts_only_on_synchronization_account_races(self):
        # The paper's punchline: every conflicting pair involves two enabled
        # spenders of the SAME account.
        token = ERC20TokenType(3, total_supply=0)
        state = TokenState.create([10, 0, 0], {(0, 1): 10, (0, 2): 10})
        invocations = [
            inv(0, op("transfer", 1, 10)),
            inv(1, op("transferFrom", 0, 1, 10)),
            inv(2, op("transferFrom", 0, 2, 10)),
            inv(1, op("balanceOf", 0)),
            inv(2, op("approve", 1, 5)),
        ]
        analyses = [
            analyze_pair(token, state, first, second)
            for first, second in combinations(invocations, 2)
        ]
        conflicts = [a for a in analyses if a.kind is PairKind.CONFLICT]
        assert conflicts, "the races must be detected"
        spenders = {0, 1, 2}
        for analysis in conflicts:
            names = {
                analysis.first.operation.name,
                analysis.second.operation.name,
            }
            assert names <= {"transfer", "transferFrom"}
            assert analysis.first.pid in spenders
            assert analysis.second.pid in spenders

    def test_the_kind_does_not_depend_on_the_pair_order(self):
        # Each verdict is about an unordered pair: both orders are run.
        token = ERC20TokenType(3, total_supply=0)
        state = TokenState.create([10, 0, 0], {(0, 1): 10, (0, 2): 10})
        invocations = [
            inv(0, op("transfer", 1, 10)),
            inv(1, op("transferFrom", 0, 1, 10)),
            inv(2, op("transferFrom", 0, 2, 10)),
            inv(1, op("balanceOf", 0)),
            inv(2, op("approve", 1, 5)),
            inv(0, op("approve", 2, 3)),
            inv(1, op("transfer", 2, 0)),
        ]
        for first, second in combinations(invocations, 2):
            assert (
                analyze_pair(token, state, first, second).kind
                is analyze_pair(token, state, second, first).kind
            ), (first, second)


class TestCaseLabels:
    def test_labels(self):
        assert "Case 1" in erc20_case_label(
            inv(0, op("transfer", 1, 1)), inv(1, op("transfer", 0, 1))
        )
        assert "Case 2" in erc20_case_label(
            inv(0, op("transferFrom", 0, 1, 1)),
            inv(1, op("transferFrom", 0, 1, 1)),
        )
        assert "Case 3" in erc20_case_label(
            inv(0, op("transfer", 1, 1)), inv(1, op("transferFrom", 0, 1, 1))
        )
        assert "Case 4" in erc20_case_label(
            inv(0, op("approve", 1, 1)), inv(1, op("transferFrom", 0, 1, 1))
        )
        assert "read-only" in erc20_case_label(
            inv(0, op("balanceOf", 0)), inv(1, op("transfer", 0, 1))
        )
        assert "commuting" in erc20_case_label(
            inv(0, op("approve", 1, 1)), inv(1, op("approve", 0, 1))
        )


class TestStaticKindAudit:
    """The audit walks an executor's windows, each at its prefix state."""

    def test_each_window_is_analyzed_at_its_prefix_state(self):
        """Two spends through one allowance: at q0 nobody granted it, so
        both fail and the pair commutes; after the first window's
        ``approve`` they race, and the oracle confirms the conflict."""
        token = ERC20TokenType(4, total_supply=20)
        spends = [
            inv(2, op("transferFrom", 0, 1, 10)),
            inv(2, op("transferFrom", 0, 3, 10)),
        ]
        items = [inv(0, op("approve", 2, 15)), inv(1, op("balanceOf", 0))]
        items += [*spends, inv(3, op("totalSupply"))]
        audit = audit_static_kinds(token, items, 2)
        # Windows of 2, 2 and 1 ops; only the spends are a static CONFLICT.
        assert audit.pairs == 2
        assert (audit.checked_conflicts, audit.confirmed_conflicts) == (1, 1)
        assert audit.conflict_precision == 1.0
        assert audit.violations == []
        at_q0 = audit_static_kinds(token, spends, 2)
        assert (at_q0.checked_conflicts, at_q0.confirmed_conflicts) == (1, 0)
