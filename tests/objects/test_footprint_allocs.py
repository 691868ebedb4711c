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
from repro.objects.erc20 import ERC20TokenType
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
