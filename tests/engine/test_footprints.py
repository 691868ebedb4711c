"""Unit tests for static operation footprints and the pair rule."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.objects.asset_transfer import AssetTransferType, DynamicOwnerATType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.objects.footprint import (
    EMPTY_FOOTPRINT,
    SUPPLY,
    OpFootprint,
    accounts_in,
    allow,
    anchor_account,
    bal,
    footprint,
    static_pair_kind,
    union_footprint,
)
from repro.spec.operation import op


class TestPairRule:
    def test_disjoint_writes_commute(self):
        f1 = footprint(observes=[bal(0)], adds=[bal(0), bal(1)])
        f2 = footprint(observes=[bal(2)], adds=[bal(2), bal(3)])
        assert static_pair_kind(f1, f2) == "commute"

    def test_shared_adds_commute(self):
        # Two credits into the same account: deltas commute.
        f1 = footprint(observes=[bal(0)], adds=[bal(0), bal(9)])
        f2 = footprint(observes=[bal(1)], adds=[bal(1), bal(9)])
        assert static_pair_kind(f1, f2) == "commute"

    def test_write_into_observed_cell_conflicts(self):
        f1 = footprint(observes=[bal(0)], adds=[bal(0), bal(1)])
        f2 = footprint(observes=[bal(1)], adds=[bal(1), bal(2)])
        assert static_pair_kind(f1, f2) == "conflict"

    def test_read_only_side_degrades_to_read_only(self):
        writer = footprint(sets=[allow(0, 1)])
        reader = footprint(observes=[allow(0, 1)])
        assert static_pair_kind(writer, reader) == "read-only"

    def test_set_set_conflicts(self):
        f = footprint(sets=[allow(0, 1)])
        assert static_pair_kind(f, f) == "conflict"

    def test_unknown_footprint_is_conservative(self):
        assert static_pair_kind(None, EMPTY_FOOTPRINT) == "conflict"

    def test_empty_commutes_with_everything(self):
        writer = footprint(observes=[bal(0)], adds=[bal(0)], sets=[allow(0, 0)])
        assert static_pair_kind(EMPTY_FOOTPRINT, writer) == "commute"


class TestERC20Footprints:
    @pytest.fixture
    def token(self):
        return ERC20TokenType(4, total_supply=40, with_extensions=True)

    def test_transfer(self, token):
        fp = token.footprint(0, op("transfer", 1, 5))
        assert fp.observes == {bal(0)}
        assert fp.adds == {bal(0), bal(1)}
        assert fp.contended == {bal(0)}

    def test_zero_value_transfer_is_empty(self, token):
        assert token.footprint(0, op("transfer", 1, 0)) == EMPTY_FOOTPRINT

    def test_self_transfer_is_read_only(self, token):
        fp = token.footprint(0, op("transfer", 0, 5))
        assert fp.is_read_only
        assert fp.observes == {bal(0)}

    def test_transfer_from(self, token):
        fp = token.footprint(2, op("transferFrom", 0, 1, 5))
        assert fp.observes == {bal(0), allow(0, 2)}
        assert fp.adds == {bal(0), bal(1), allow(0, 2)}
        # Both the balance and the allowance are spend-contended.
        assert fp.contended == {bal(0), allow(0, 2)}

    def test_approve_is_absolute_write(self, token):
        fp = token.footprint(1, op("approve", 2, 7))
        assert fp.sets == {allow(1, 2)}
        assert not fp.observes

    def test_reads(self, token):
        assert token.footprint(0, op("balanceOf", 3)).observes == {bal(3)}
        assert token.footprint(0, op("allowance", 1, 2)).observes == {
            allow(1, 2)
        }
        assert token.footprint(0, op("totalSupply")).observes == {SUPPLY}

    def test_total_supply_commutes_with_transfers(self, token):
        supply = token.footprint(0, op("totalSupply"))
        transfer = token.footprint(1, op("transfer", 2, 3))
        assert static_pair_kind(supply, transfer) == "commute"

    def test_increase_allowance_is_blind_delta(self, token):
        fp = token.footprint(0, op("increaseAllowance", 1, 5))
        assert fp.adds == {allow(0, 1)}
        assert not fp.observes
        other = token.footprint(0, op("increaseAllowance", 1, 9))
        assert static_pair_kind(fp, other) == "commute"

    def test_decrease_allowance_is_guarded(self, token):
        fp = token.footprint(0, op("decreaseAllowance", 1, 5))
        assert fp.observes == {allow(0, 1)}
        assert fp.adds == {allow(0, 1)}

    def test_paper_case4_conflicts(self, token):
        """approve vs transferFrom on the same allowance cell (Case 4)."""
        approve = token.footprint(0, op("approve", 2, 7))
        spend = token.footprint(2, op("transferFrom", 0, 1, 5))
        assert static_pair_kind(approve, spend) == "conflict"
        assert approve.contended & spend.contended

    def test_paper_commuting_base_case(self, token):
        """approve/approve and approve/transfer commute (paper, Thm 3)."""
        a1 = token.footprint(0, op("approve", 2, 7))
        a2 = token.footprint(1, op("approve", 2, 7))
        transfer = token.footprint(1, op("transfer", 3, 2))
        assert static_pair_kind(a1, a2) == "commute"
        assert static_pair_kind(a1, transfer) == "commute"


class TestAssetTransferFootprints:
    def test_single_owner_transfer(self):
        at = AssetTransferType([10, 10, 10])
        fp = at.footprint(0, op("transfer", 0, 1, 5))
        assert fp.observes == {bal(0)}
        assert fp.adds == {bal(0), bal(1)}

    def test_unauthorized_transfer_is_empty(self):
        at = AssetTransferType([10, 10, 10])
        assert at.footprint(1, op("transfer", 0, 1, 5)) == EMPTY_FOOTPRINT

    def test_shared_account_spends_contend(self):
        """k=2 shared account: both owners' spends contend on the balance —
        the k-AT consensus story at footprint level."""
        at = AssetTransferType([10, 10], owner_map=[{0, 1}, {1}])
        f0 = at.footprint(0, op("transfer", 0, 1, 2))
        f1 = at.footprint(1, op("transfer", 0, 1, 3))
        assert static_pair_kind(f0, f1) == "conflict"
        assert f0.contended & f1.contended == {bal(0)}

    def test_dynamic_owner_map_has_no_static_footprint(self):
        """µ is state, so the static-µ footprint (which would call a
        non-owner's transfer a no-op) is not inherited."""
        dat = DynamicOwnerATType([10, 10], owner_map=[{0}, {1}])
        assert dat.footprint(1, op("transfer", 0, 1, 5)) is None
        assert dat.footprint(0, op("setOwners", 0, frozenset({0, 1}))) is None


class TestERC721Footprints:
    @pytest.fixture
    def nft(self):
        return ERC721TokenType(3, initial_owners=[0, 1, 2])

    def test_transfers_of_distinct_tokens_commute(self, nft):
        f0 = nft.footprint(0, op("transferFrom", 0, 1, 0))
        f1 = nft.footprint(1, op("transferFrom", 1, 2, 1))
        assert static_pair_kind(f0, f1) == "commute"

    def test_same_token_race_conflicts(self, nft):
        """The §6 ownerOf race: two transfers of one token need consensus."""
        f0 = nft.footprint(0, op("transferFrom", 0, 1, 0))
        f1 = nft.footprint(2, op("transferFrom", 0, 2, 0))
        assert static_pair_kind(f0, f1) == "conflict"
        assert f0.contended & f1.contended

    def test_owner_of_is_read_only(self, nft):
        read = nft.footprint(1, op("ownerOf", 0))
        write = nft.footprint(0, op("transferFrom", 0, 1, 0))
        assert read.is_read_only
        assert static_pair_kind(read, write) == "read-only"

    def test_operator_grant_conflicts_with_transfers(self, nft):
        grant = nft.footprint(0, op("setApprovalForAll", 1, True))
        transfer = nft.footprint(1, op("transferFrom", 1, 2, 1))
        assert static_pair_kind(grant, transfer) == "conflict"

    def test_self_approval_is_empty(self, nft):
        assert (
            nft.footprint(0, op("setApprovalForAll", 0, True))
            == EMPTY_FOOTPRINT
        )


class TestContended:
    def test_blind_credit_not_contended(self):
        fp = OpFootprint(
            observes=frozenset({bal(0)}),
            adds=frozenset({bal(0), bal(1)}),
            sets=frozenset(),
        )
        assert bal(1) not in fp.contended
        assert bal(0) in fp.contended


def batch():
    """Small batches of ``OpFootprint | None`` over a few shared cells,
    so member pairs collide in every access kind."""
    cells = st.frozensets(
        st.sampled_from([bal(0), bal(1), allow(0, 1), SUPPLY]), max_size=3
    )
    member = st.none() | st.builds(OpFootprint, cells, cells, cells)
    return st.lists(member, max_size=4)


def gates(a, b) -> bool:
    """The router's cross-round gate: anything but a static commute."""
    return static_pair_kind(a, b) != "commute"


class TestFootprintUnion:
    """The batch-level commutativity test behind the cluster's per-unit
    dispatch gate — :func:`static_pair_kind` applied to unions of
    footprints (:func:`union_footprint`)."""

    def test_union_is_by_access_kind(self):
        union = union_footprint(
            [
                footprint(observes=[bal(0)], adds=[bal(0), bal(1)]),
                footprint(sets=[allow(0, 1)]),
            ]
        )
        assert union.observes == frozenset({bal(0)})
        assert union.adds == frozenset({bal(0), bal(1)})
        assert union.sets == frozenset({allow(0, 1)})

    def test_an_unknown_member_makes_the_union_unknown(self):
        assert union_footprint([footprint(observes=[bal(0)]), None]) is None

    def test_read_read_sharing_commutes(self):
        a = union_footprint([footprint(observes=[bal(3), SUPPLY])])
        b = union_footprint([footprint(observes=[bal(3)])])
        assert not gates(a, b)
        assert not gates(b, a)

    def test_delta_delta_sharing_commutes(self):
        # Two batches crediting one cell: commutative deltas on both
        # sides never need an order.
        a = union_footprint(
            [footprint(observes=[bal(0)], adds=[bal(0), bal(9)])]
        )
        b = union_footprint(
            [footprint(observes=[bal(1)], adds=[bal(1), bal(9)])]
        )
        assert not gates(a, b)
        assert not gates(b, a)

    def test_read_gates_on_write(self):
        reader = union_footprint([footprint(observes=[bal(5)])])
        writer = union_footprint(
            [footprint(observes=[bal(5)], adds=[bal(5), bal(6)])]
        )
        assert gates(reader, writer)
        assert gates(writer, reader)  # symmetric: write gates read

    def test_shared_cell_with_absolute_write_conflicts(self):
        delta = union_footprint([footprint(adds=[allow(0, 1)])])
        absolute = union_footprint([footprint(sets=[allow(0, 1)])])
        assert gates(delta, absolute)
        assert gates(absolute, delta)
        assert gates(absolute, absolute)  # set-set too

    def test_disjoint_batches_commute(self):
        a = union_footprint(
            [footprint(observes=[bal(0)], adds=[bal(0)], sets=[allow(0, 0)])]
        )
        b = union_footprint(
            [footprint(observes=[bal(1)], adds=[bal(1)], sets=[allow(1, 1)])]
        )
        assert not gates(a, b)

    def test_unknown_conflicts_with_everything(self):
        unknown = union_footprint([None])
        empty = union_footprint([EMPTY_FOOTPRINT])
        assert gates(unknown, empty)
        assert gates(empty, unknown)
        assert gates(unknown, unknown)

    def test_empty_batches_never_conflict(self):
        empty = union_footprint([])
        writer = union_footprint(
            [footprint(observes=[bal(0)], adds=[bal(0)])]
        )
        assert empty == EMPTY_FOOTPRINT
        assert not gates(empty, writer)
        assert not gates(writer, empty)

    def test_a_cell_set_by_one_member_and_added_by_another_still_gates(self):
        # A conflict-graph component naturally holds an approve and a
        # transferFrom of one allowance cell: its union has the cell under
        # both kinds, and the absolute write must keep gating a delta.
        cell = allow(0, 1)
        unit = union_footprint(
            [footprint(sets=[cell]), footprint(adds=[cell])]
        )
        delta = union_footprint([footprint(adds=[cell])])
        assert unit.sets == unit.adds == frozenset({cell})
        assert gates(unit, delta)
        assert gates(delta, unit)

    @given(batch(), batch())
    @example(
        left=[footprint(sets=[bal(0)]), footprint(adds=[bal(0)])],
        right=[footprint(adds=[bal(0)])],
    )
    def test_the_union_verdict_covers_every_member_pair(self, left, right):
        """Soundness of the lift: whenever any cross pair of members does
        not commute, neither do the unions."""
        if any(gates(a, b) for a in left for b in right):
            assert gates(union_footprint(left), union_footprint(right))


# -- the set-algebra definitions, kept as the specification ---------------
#
# ``static_pair_kind``, ``anchor_account`` and ``contends_with`` answer on
# the three frozensets as they stand; these are the definitions they were
# derived from, one derived set per question.


def spec_pair_kind(first, second) -> str:
    if first is None or second is None:
        return "conflict"
    w1, w2 = first.adds | first.sets, second.adds | second.sets
    if not (w1 & second.observes) and not (w2 & first.observes):
        shared = w1 & w2
        if shared.isdisjoint(first.sets) and shared.isdisjoint(second.sets):
            return "commute"
    if first.is_read_only or second.is_read_only:
        return "read-only"
    return "conflict"


def spec_anchor_account(fp, default: int) -> int:
    if fp is not None:
        for pool in (fp.contended, fp.adds | fp.sets, fp.observes):
            accounts = accounts_in(pool)
            if accounts:
                return accounts[0]
    return default


def known_footprint():
    """Footprints over a few cells that collide in every kind: balances
    and allowances of three accounts, the account-less supply cell and a
    cell whose first index is not an account."""
    cells = st.frozensets(
        st.sampled_from(
            [bal(0), bal(1), bal(2), allow(2, 0), allow(0, 1), SUPPLY]
            + [("own", "treasury")]
        ),
        max_size=4,
    )
    return st.builds(OpFootprint, cells, cells, cells)


def any_footprint():
    return st.none() | known_footprint()


class TestRewrittenRulesAgreeWithTheSetAlgebra:
    @given(any_footprint(), any_footprint())
    @example(None, EMPTY_FOOTPRINT)
    @example(EMPTY_FOOTPRINT, EMPTY_FOOTPRINT)
    @example(
        union_footprint([footprint(sets=[bal(0)]), footprint(adds=[bal(0)])]),
        footprint(adds=[bal(0)]),
    )
    def test_pair_kind(self, first, second):
        assert static_pair_kind(first, second) == spec_pair_kind(first, second)

    @given(any_footprint())
    @example(None)
    @example(EMPTY_FOOTPRINT)
    @example(footprint(observes=[SUPPLY], adds=[("own", "treasury")]))
    @example(footprint(observes=[bal(0)], adds=[bal(1), bal(2)], sets=[bal(2)]))
    @example(footprint(observes=[bal(2)], adds=[bal(2), bal(0)]))
    def test_anchor_account(self, fp):
        assert anchor_account(fp, 99) == spec_anchor_account(fp, 99)

    @given(known_footprint(), known_footprint())
    @example(EMPTY_FOOTPRINT, EMPTY_FOOTPRINT)
    @example(
        footprint(sets=[allow(0, 1)]),
        footprint(observes=[allow(0, 1)], adds=[allow(0, 1)]),
    )
    @example(
        union_footprint([footprint(sets=[bal(0)]), footprint(adds=[bal(0)])]),
        footprint(observes=[bal(0)], adds=[bal(0)]),
    )
    def test_contention(self, first, second):
        expected = bool(first.contended & second.contended)
        assert first.contends_with(second) is expected
        assert second.contends_with(first) is expected


class TestOneSharedEmptyKind:
    """The identity pins: every way of building a footprint here gives an
    unused kind the same object (tests may look; other code must not)."""

    def test_helpers_share_the_empty_set(self):
        empty = EMPTY_FOOTPRINT.observes
        assert EMPTY_FOOTPRINT.adds is EMPTY_FOOTPRINT.sets is empty
        union = union_footprint([])
        assert union.observes is union.adds is union.sets is empty
        built = footprint(observes=[bal(0)], adds=iter(()))
        assert built.adds is built.sets is empty
        assert OpFootprint(frozenset({bal(0)})).sets is empty

    def test_erc20_reads_share_the_empty_set(self):
        fp = ERC20TokenType(4).footprint(1, op("balanceOf", 2))
        assert fp.adds is fp.sets is EMPTY_FOOTPRINT.observes

    def test_value_semantics_do_not_see_the_sharing(self):
        fresh = OpFootprint(frozenset(), frozenset(()), frozenset([]))
        assert fresh == EMPTY_FOOTPRINT
        assert hash(fresh) == hash(EMPTY_FOOTPRINT)
        assert repr(fresh) == repr(EMPTY_FOOTPRINT) == (
            "OpFootprint(observes=frozenset(), adds=frozenset(), "
            "sets=frozenset())"
        )
