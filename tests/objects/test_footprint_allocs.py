"""Allocation guards for the per-op substrate — counts, no clock.

Every op of every window passes through ``static_pair_kind``,
``anchor_account`` and ``contends_with``; they answer on a footprint's three
frozensets as they stand, and an unused kind is one shared empty set.  A
change that builds a union per call, or a fresh empty frozenset per
footprint, fails here on a count that repeats exactly rather than in a noisy
throughput row.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from itertools import repeat

import pytest

from repro.engine import OpClassifier
from repro.engine.rounds import plan_window
from repro.engine.mempool import PendingOp
from repro.objects import erc20
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.objects.footprint import (
    EMPTY_FOOTPRINT,
    anchor_account,
    static_pair_kind,
)
from repro.spec.operation import op

TOKEN = ERC20TokenType(8, with_extensions=True)
FOOTPRINTS = [
    TOKEN.footprint(pid, operation)
    for pid, operation in (
        (1, op("balanceOf", 2)),
        (1, op("transfer", 2, 3)),
        (2, op("transfer", 1, 1)),
        (3, op("transferFrom", 1, 2, 3)),
        (1, op("approve", 3, 2)),
        (1, op("decreaseAllowance", 3, 1)),
        (1, op("totalSupply")),
        (1, op("transfer", 2, 0)),
    )
]
PAIRS = [(a, b) for a in FOOTPRINTS for b in FOOTPRINTS]


def nothing(first, second):
    return None


def contention(first, second):
    return first.contends_with(second)


def anchor(first, second):
    return anchor_account(first, 0)


def measure(question) -> tuple[int, int]:
    """``(blocks kept, transient peak in bytes)`` over 10 048 calls of
    ``question`` on ERC20 footprint pairs, after a warm-up."""

    def loop():
        for _ in repeat(None, 157):
            for first, second in PAIRS:
                question(first, second)

    loop()
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        loop()
        kept = sys.getallocatedblocks() - before
        tracemalloc.start()
        try:
            loop()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            loop()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    return kept, peak


@pytest.mark.parametrize("question", [static_pair_kind, anchor, contention])
def test_the_questions_build_no_set(question):
    kept, peak = measure(question)
    _, loop_peak = measure(nothing)
    assert abs(kept) <= 8
    # Above the bare loop, a call may hold a set iterator — never a set.
    assert peak - loop_peak < sys.getsizeof(frozenset())


def test_a_window_of_reads_holds_one_set_per_account():
    """32 reads of 8 accounts: each account's read footprint is built
    once, with the token, and every read of it shares that one."""
    ops = [
        PendingOp(seq, seq % 8, op("balanceOf", (seq * 3) % 8))
        for seq in range(32)
    ]
    plan = plan_window(OpClassifier(TOKEN), ops)
    kinds = [
        kind
        for fp in plan.footprints
        for kind in (fp.observes, fp.adds, fp.sets)
    ]
    assert len({id(kind) for kind in kinds if kind}) == 8
    assert len({id(fp) for fp in plan.footprints}) == 8
    assert {id(kind) for kind in kinds if not kind} == {
        id(EMPTY_FOOTPRINT.observes)
    }


def test_a_transfer_footprint_builds_no_location():
    """A transfer's footprint shares its account's balance cells and
    observe set: it keeps two blocks, its record and its written set —
    a fresh location tuple or observe set would make it three or more."""
    calls = [(pid, op("transfer", (pid + 3) % 8, 1)) for pid in range(8)]
    calls *= 64
    footprint = TOKEN.footprint
    for pid, operation in calls:
        footprint(pid, operation)
    kept = [None] * len(calls)
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for k, (pid, operation) in enumerate(calls):
            kept[k] = footprint(pid, operation)
        blocks = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert blocks - 2 * len(calls) <= 8


# -- α stored sparse: an allowance write costs the same at any size --------


def approve_allocations(accounts: int, through: str) -> tuple[int, int, int]:
    """``(blocks kept, bytes kept, transient peak in bytes)`` that
    ``erc20.py`` allocates for 64 ``approve``s, each on its own copy of one
    state with three allowances: ``through="spec"`` folds each through
    ``apply`` on the state, ``"batch"`` applies each to a fresh batch."""
    token = ERC20TokenType(accounts, total_supply=10 * accounts)
    setup = [(0, (1, 2)), (1, (2, 3)), (5, (0, 1))]
    state, _ = token.run([(p, op("approve", *args)) for p, args in setup])
    approve = op("approve", 3, 4)
    if through == "spec":
        inputs = [state] * 64

        def one(start):
            return token.apply(start, 1, approve)

    else:
        inputs = [token.batch(state) for _ in range(64)]

        def one(batch):
            return batch.apply(1, approve)

    module = [tracemalloc.Filter(True, erc20.__file__)]
    one(token.batch(state) if through == "batch" else state)  # warm-up
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(module)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kept = [one(start) for start in inputs]
        peak = tracemalloc.get_traced_memory()[1] - base
        after = tracemalloc.take_snapshot().filter_traces(module)
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(kept) == 64
    diff = after.compare_to(before, "filename")
    return (
        sum(stat.count_diff for stat in diff),
        sum(stat.size_diff for stat in diff),
        peak,
    )


@pytest.mark.parametrize("through", ["spec", "batch"])
def test_an_approve_costs_the_same_at_any_account_count(through):
    """α holds only the positive allowances, so a write copies one small
    map (and, on the persistent state, α's outer map of allowance-bearing
    accounts) — nothing n long, at 2¹⁴ accounts as at 2⁶."""
    approve_allocations(2**6, through)  # the process's first run peaks lower
    small = approve_allocations(2**6, through)
    large = approve_allocations(2**14, through)
    assert small[0] > 0
    assert large[0] <= small[0]
    assert large[1] <= small[1]
    assert large[2] <= small[2]


def test_deploy_is_linear_in_the_accounts():
    """``q0`` at 2¹⁶ accounts: β and an empty α — O(n) bytes, no
    per-account α structure."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = TokenState.deploy(2**16, 1000)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert state.allowances.cells() == []
    assert kept < 16 * 2**16
