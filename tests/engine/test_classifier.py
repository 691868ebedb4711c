"""The classifier's soundness contract against the semantic oracle.

The static fast path may never claim more reorderability than the
semantic ``PairKind`` oracle grants, at any reachable state:

* static COMMUTE   ⇒ oracle COMMUTE (exactly);
* static READ_ONLY ⇒ oracle READ_ONLY or COMMUTE;
* static CONFLICT  ⇒ unconstrained (the conservative fallback).

The hypothesis suites below drive random invocation pairs at random
reachable states for ERC20 (with extensions), k-shared asset transfer and
ERC721 through :func:`repro.analysis.commutativity.audit_static_kinds`,
which reports every contract violation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.commutativity import (
    CachedPairAnalyzer,
    Invocation,
    PairKind,
    audit_static_kinds,
)
from repro.engine.classifier import OpClassifier
from repro.engine.mempool import PendingOp
from repro.engine.rounds import plan_window
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.objects.footprint import EMPTY_FOOTPRINT
from repro.spec.operation import Operation, op
from tests.engine.test_one_footprint_pass import _count_calls

N = 4  # accounts/processes in the generated universes


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ACCOUNT = st.integers(0, N - 1)
VALUE = st.integers(0, 6)


@st.composite
def erc20_invocation(draw):
    pid = draw(ACCOUNT)
    kind = draw(
        st.sampled_from(
            [
                "transfer",
                "transferFrom",
                "approve",
                "balanceOf",
                "allowance",
                "totalSupply",
                "increaseAllowance",
                "decreaseAllowance",
            ]
        )
    )
    if kind == "transfer":
        operation = Operation(kind, (draw(ACCOUNT), draw(VALUE)))
    elif kind == "transferFrom":
        operation = Operation(kind, (draw(ACCOUNT), draw(ACCOUNT), draw(VALUE)))
    elif kind in ("approve", "increaseAllowance", "decreaseAllowance"):
        operation = Operation(kind, (draw(ACCOUNT), draw(VALUE)))
    elif kind == "balanceOf":
        operation = Operation(kind, (draw(ACCOUNT),))
    elif kind == "allowance":
        operation = Operation(kind, (draw(ACCOUNT), draw(ACCOUNT)))
    else:
        operation = Operation("totalSupply")
    return pid, operation


@st.composite
def erc721_invocation(draw):
    pid = draw(ACCOUNT)
    kind = draw(
        st.sampled_from(
            [
                "ownerOf",
                "balanceOf",
                "transferFrom",
                "approve",
                "getApproved",
                "setApprovalForAll",
                "isApprovedForAll",
            ]
        )
    )
    token = st.integers(0, 2)
    if kind == "transferFrom":
        operation = Operation(kind, (draw(ACCOUNT), draw(ACCOUNT), draw(token)))
    elif kind == "approve":
        operation = Operation(kind, (draw(ACCOUNT), draw(token)))
    elif kind in ("ownerOf", "getApproved"):
        operation = Operation(kind, (draw(token),))
    elif kind == "balanceOf":
        operation = Operation(kind, (draw(ACCOUNT),))
    elif kind == "setApprovalForAll":
        operation = Operation(kind, (draw(ACCOUNT), draw(st.booleans())))
    else:
        operation = Operation(kind, (draw(ACCOUNT), draw(ACCOUNT)))
    return pid, operation


def _audit_pair_after(object_type, prefix, pair, pad):
    """Audit ``pair`` at the state a random ``prefix`` of ops reaches:
    windows of two, the prefix padded to an even length with ``pad`` (a
    read-only op, so it moves no state) — the prefix's own windows are
    audited on the way.  Returns the violations."""
    invocations = [*prefix, *[pad] * (len(prefix) % 2), *pair]
    return audit_static_kinds(
        object_type,
        [Invocation(pid, operation) for pid, operation in invocations],
        2,
    ).violations


# ---------------------------------------------------------------------------
# Contract suites (the audit reports every soundness violation)
# ---------------------------------------------------------------------------


class TestSoundnessERC20:
    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.lists(erc20_invocation(), max_size=8),
        first=erc20_invocation(),
        second=erc20_invocation(),
    )
    def test_static_agrees_with_oracle(self, prefix, first, second):
        token = ERC20TokenType(N, total_supply=20, with_extensions=True)
        pad = (0, op("totalSupply"))
        assert _audit_pair_after(token, prefix, [first, second], pad) == []


class TestSoundnessAssetTransfer:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        prefix=st.lists(
            st.tuples(ACCOUNT, ACCOUNT, ACCOUNT, VALUE), max_size=6
        ),
    )
    def test_static_agrees_with_oracle(self, data, prefix):
        # A 2-shared account 0 plus single-owner accounts.
        at = AssetTransferType(
            [10] * N, owner_map=[{0, 1}] + [{a} for a in range(1, N)]
        )
        prefix = [
            (pid, op("transfer", src, dst, val))
            for pid, src, dst, val in prefix
        ]
        draw = data.draw
        ops = []
        for _ in range(2):
            kind = draw(
                st.sampled_from(["transfer", "balanceOf", "totalSupply"])
            )
            pid = draw(ACCOUNT)
            if kind == "transfer":
                operation = op(
                    "transfer", draw(ACCOUNT), draw(ACCOUNT), draw(VALUE)
                )
            elif kind == "balanceOf":
                operation = op("balanceOf", draw(ACCOUNT))
            else:
                operation = op("totalSupply")
            ops.append((pid, operation))
        pad = (0, op("totalSupply"))
        assert _audit_pair_after(at, prefix, ops, pad) == []


class TestSoundnessERC721:
    @settings(max_examples=200, deadline=None)
    @given(
        prefix=st.lists(erc721_invocation(), max_size=8),
        first=erc721_invocation(),
        second=erc721_invocation(),
    )
    def test_static_agrees_with_oracle(self, prefix, first, second):
        nft = ERC721TokenType(N, initial_owners=[0, 1, 2])
        pad = (0, op("balanceOf", 0))
        assert _audit_pair_after(nft, prefix, [first, second], pad) == []


# ---------------------------------------------------------------------------
# Classifier mechanics
# ---------------------------------------------------------------------------


class TestClassifierMechanics:
    def test_every_pair_is_classified_and_counted(self):
        """No memo: a repeated footprint pair is classified again, so
        ``static_pairs`` counts pairs, and the two cache-hit counters (kept
        for ``benchmarks/wall/measure.py``) read 0."""
        token = ERC20TokenType(N, total_supply=20)
        computed = _count_calls(token, "footprint")
        classifier = OpClassifier(token)
        a = PendingOp(0, 0, op("transfer", 1, 2))
        b = PendingOp(1, 2, op("transfer", 3, 2))
        assert classifier.classify(a, b) is PairKind.COMMUTE
        assert classifier.classify(a, b) is PairKind.COMMUTE
        stats = classifier.stats
        assert stats.static_pairs == stats.pairs == 2
        assert computed[0] == 4
        assert (stats.pair_cache_hits, stats.footprint_cache_hits) == (0, 0)

    def test_classify_window_takes_one_footprint_pass(self):
        """The all-pairs oracle computes each op's footprint once, then
        classifies index pairs exactly as :meth:`classify` would."""
        token = ERC20TokenType(N, total_supply=20)
        computed = _count_calls(token, "footprint")
        classifier = OpClassifier(token)
        window = [
            PendingOp(i, i % N, op("transfer", (i + 1 + i // N) % N, 1))
            for i in range(6)
        ]
        kinds = classifier.classify_window(window)
        assert computed[0] == len(window)
        assert classifier.stats.static_pairs == len(kinds) == 15
        assert kinds == {
            (i, j): classifier.classify(window[i], window[j])
            for i in range(6)
            for j in range(i + 1, 6)
        }

    def test_unknown_object_type_falls_back_to_conflict(self):
        from repro.objects.erc777 import ERC777TokenType

        erc777 = ERC777TokenType([5] * N)
        classifier = OpClassifier(erc777)
        a = PendingOp(0, 0, op("balanceOf", 1))
        b = PendingOp(1, 1, op("balanceOf", 2))
        assert classifier.classify(a, b) is PairKind.CONFLICT
        assert classifier.stats.fallback_pairs == 1

    def test_needs_consensus_same_process_never(self):
        """One process's conflicting pair is ordered by its chain alone."""
        token = ERC20TokenType(N, total_supply=20)
        a = PendingOp(0, 0, op("transfer", 1, 2))
        b = PendingOp(1, 0, op("transfer", 2, 2))
        plan = plan_window(OpClassifier(token), [a, b])
        assert plan.chains == [[0, 1]]
        assert plan.contended_groups == []

    def test_needs_consensus_two_spenders(self):
        token = ERC20TokenType(N, total_supply=20)
        a = PendingOp(0, 1, op("transferFrom", 0, 2, 2))
        b = PendingOp(1, 2, op("transferFrom", 0, 3, 2))
        plan = plan_window(OpClassifier(token), [a, b])
        assert plan.contended_groups == [[0, 1]]

    def test_credit_enabling_spend_needs_no_consensus(self):
        """transfer into b vs b's own spend: ordered, but consensus-free
        (the consensus-number-1 regime)."""
        token = ERC20TokenType(N, total_supply=20)
        classifier = OpClassifier(token)
        credit = PendingOp(0, 0, op("transfer", 1, 2))
        spend = PendingOp(1, 1, op("transfer", 2, 2))
        assert classifier.classify(credit, spend) is PairKind.CONFLICT
        plan = plan_window(classifier, [credit, spend])
        assert plan.chains == [[0, 1]]
        assert plan.contended_groups == []

    def test_conflict_precision_reported(self):
        """Two spenders of an allowance nobody granted: a static CONFLICT
        the oracle calls COMMUTE (both fail, nothing moves) — checked,
        not confirmed."""
        token = ERC20TokenType(N, total_supply=20)
        audit = audit_static_kinds(
            token,
            [
                Invocation(1, op("transferFrom", 0, 2, 2)),
                Invocation(2, op("transferFrom", 0, 3, 2)),
            ],
            2,
        )
        assert audit.pairs == audit.checked_conflicts == 1
        assert audit.confirmed_conflicts == 0
        assert audit.conflict_precision == 0.0
        assert audit.violations == []

    def test_an_unsound_footprint_is_reported(self):
        """A footprint rule that calls two spends of one balance COMMUTE
        claims more than the oracle grants: the audit names the pair."""

        class _Blind(ERC20TokenType):
            def footprint(self, pid, operation):
                return EMPTY_FOOTPRINT

        # Account 0 holds the whole supply: whichever spend runs first
        # succeeds and the other fails.
        first = Invocation(0, op("transfer", 1, 20))
        second = Invocation(0, op("transfer", 2, 20))
        audit = audit_static_kinds(
            _Blind(N, total_supply=20), [first, second], 2
        )
        assert audit.violations == [
            (first, second, PairKind.COMMUTE, PairKind.CONFLICT)
        ]


class TestCachedPairAnalyzer:
    def test_cache_hits_and_symmetry(self):
        token = ERC20TokenType(N, total_supply=20)
        oracle = CachedPairAnalyzer(token)
        state = token.initial_state()
        first = Invocation(0, op("transfer", 1, 2))
        second = Invocation(1, op("transfer", 2, 2))
        kind = oracle.kind(state, first, second)
        assert oracle.misses == 1
        assert oracle.kind(state, second, first) == kind
        assert oracle.hits == 1
        oracle.clear()
        oracle.kind(state, first, second)
        assert (oracle.hits, oracle.misses) == (1, 2)
