"""Tests for the ERC721 non-fungible token object (§6)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgumentError
from repro.objects.erc721 import NO_APPROVAL, ERC721Token, ERC721TokenType
from repro.spec.operation import op


@pytest.fixture
def nft() -> ERC721TokenType:
    # 3 accounts; tokens 0,1 minted to account 0, token 2 to account 1.
    return ERC721TokenType(3, initial_owners=[0, 0, 1])


class TestReads:
    def test_owner_of(self, nft):
        state = nft.initial_state()
        assert nft.apply(state, 2, op("ownerOf", 0))[1] == 0
        assert nft.apply(state, 2, op("ownerOf", 2))[1] == 1

    def test_balance_counts_tokens(self, nft):
        state = nft.initial_state()
        assert nft.apply(state, 0, op("balanceOf", 0))[1] == 2
        assert nft.apply(state, 0, op("balanceOf", 1))[1] == 1
        assert nft.apply(state, 0, op("balanceOf", 2))[1] == 0

    def test_get_approved_initially_none(self, nft):
        assert (
            nft.apply(nft.initial_state(), 0, op("getApproved", 0))[1]
            == NO_APPROVAL
        )


class TestTransferFrom:
    def test_owner_transfers(self, nft):
        state, result = nft.apply(
            nft.initial_state(), 0, op("transferFrom", 0, 2, 0)
        )
        assert result is True
        assert state.owner_of(0) == 2

    def test_wrong_source_fails(self, nft):
        state = nft.initial_state()
        successor, result = nft.apply(state, 0, op("transferFrom", 2, 1, 0))
        assert result is False
        assert successor == state

    def test_unauthorized_fails(self, nft):
        state = nft.initial_state()
        successor, result = nft.apply(state, 2, op("transferFrom", 0, 2, 0))
        assert result is False
        assert successor == state

    def test_approved_spender_transfers(self, nft):
        state, _ = nft.apply(nft.initial_state(), 0, op("approve", 2, 0))
        state, result = nft.apply(state, 2, op("transferFrom", 0, 2, 0))
        assert result is True
        assert state.owner_of(0) == 2

    def test_operator_transfers(self, nft):
        state, _ = nft.apply(
            nft.initial_state(), 0, op("setApprovalForAll", 2, True)
        )
        state, result = nft.apply(state, 2, op("transferFrom", 0, 1, 1))
        assert result is True
        assert state.owner_of(1) == 1

    def test_approval_cleared_on_transfer(self, nft):
        state, _ = nft.apply(nft.initial_state(), 0, op("approve", 2, 0))
        state, _ = nft.apply(state, 2, op("transferFrom", 0, 2, 0))
        assert state.approved[0] == NO_APPROVAL
        # The old approval does not survive on the new owner.
        successor, result = nft.apply(state, 0, op("transferFrom", 2, 0, 0))
        assert result is False
        assert successor == state

    def test_race_on_one_token_has_unique_winner(self, nft):
        # Both 1 and 2 approved-for-all on account 0's tokens: only the first
        # transferFrom succeeds, the second fails (the §6 race core).
        state = nft.initial_state()
        state, _ = nft.apply(state, 0, op("setApprovalForAll", 1, True))
        state, _ = nft.apply(state, 0, op("setApprovalForAll", 2, True))
        state, first = nft.apply(state, 1, op("transferFrom", 0, 1, 0))
        state, second = nft.apply(state, 2, op("transferFrom", 0, 2, 0))
        assert first is True
        assert second is False
        assert state.owner_of(0) == 1


class TestApprovals:
    def test_owner_approves(self, nft):
        state, result = nft.apply(nft.initial_state(), 0, op("approve", 1, 0))
        assert result is True
        assert state.approved[0] == 1

    def test_non_owner_cannot_approve(self, nft):
        state = nft.initial_state()
        successor, result = nft.apply(state, 2, op("approve", 2, 0))
        assert result is False
        assert successor == state

    def test_operator_can_approve(self, nft):
        state, _ = nft.apply(
            nft.initial_state(), 0, op("setApprovalForAll", 1, True)
        )
        state, result = nft.apply(state, 1, op("approve", 2, 0))
        assert result is True
        assert state.approved[0] == 2

    def test_clearing_approval(self, nft):
        state, _ = nft.apply(nft.initial_state(), 0, op("approve", 1, 0))
        state, result = nft.apply(state, 0, op("approve", NO_APPROVAL, 0))
        assert result is True
        assert state.approved[0] == NO_APPROVAL

    def test_operator_toggle(self, nft):
        state, _ = nft.apply(
            nft.initial_state(), 0, op("setApprovalForAll", 1, True)
        )
        assert nft.apply(state, 2, op("isApprovedForAll", 0, 1))[1] is True
        state, _ = nft.apply(state, 0, op("setApprovalForAll", 1, False))
        assert nft.apply(state, 2, op("isApprovedForAll", 0, 1))[1] is False

    def test_self_operator_rejected(self, nft):
        state = nft.initial_state()
        successor, result = nft.apply(
            state, 0, op("setApprovalForAll", 0, True)
        )
        assert result is False
        assert successor == state


class TestValidation:
    def test_unknown_token(self, nft):
        with pytest.raises(InvalidArgumentError):
            nft.apply(nft.initial_state(), 0, op("ownerOf", 9))

    def test_unknown_account(self, nft):
        with pytest.raises(InvalidArgumentError):
            nft.apply(nft.initial_state(), 0, op("balanceOf", 9))

    def test_mint_to_unknown_account_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ERC721TokenType(2, initial_owners=[0, 5])


class TestRuntimeObject:
    def test_call_builders(self):
        nft = ERC721Token(3, initial_owners=[0])
        assert nft.invoke(0, nft.approve(1, 0).operation) is True
        assert nft.invoke(1, nft.transfer_from(0, 1, 0).operation) is True
        assert nft.invoke(2, nft.owner_of(0).operation) == 1
        assert nft.invoke(2, nft.balance_of(1).operation) == 1

    def test_get_approved_reads_the_approval(self):
        nft = ERC721Token(3, initial_owners=[0])
        assert nft.invoke(2, nft.get_approved(0).operation) == NO_APPROVAL
        assert nft.invoke(0, nft.approve(2, 0).operation) is True
        assert nft.invoke(1, nft.get_approved(0).operation) == 2

    def test_operator_builders_round_trip(self):
        nft = ERC721Token(3, initial_owners=[0])
        assert nft.invoke(1, nft.is_approved_for_all(0, 1).operation) is False
        assert nft.invoke(0, nft.set_approval_for_all(1, True).operation)
        assert nft.invoke(2, nft.is_approved_for_all(0, 1).operation) is True
        assert nft.invoke(0, nft.set_approval_for_all(1, False).operation)
        assert nft.invoke(2, nft.is_approved_for_all(0, 1).operation) is False
        # A revoked operator can no longer move the holder's token.
        assert nft.invoke(1, nft.transfer_from(0, 1, 0).operation) is False
