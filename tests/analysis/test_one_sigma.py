"""Eq. 10's σ_q(a) is derived once: the analysis over an immutable
``TokenState`` and §7's replica view over mutable rows both read
:func:`repro.analysis.spenders.spenders_of`."""

from __future__ import annotations

import random

from repro.analysis.spenders import enabled_spenders, spenders_of
from repro.dynamic.sync_tracker import ReplicaTokenState, sync_group
from repro.objects.erc20 import TokenState


def random_rows(rng: random.Random, n: int, low: int):
    balances = [rng.choice([low, 0, 0, 1, 5]) for _ in range(n)]
    allowances = [
        [rng.choice([0, 0, 0, 2]) for _ in range(n)] for _ in range(n)
    ]
    return balances, allowances


def test_the_two_views_agree_on_every_non_negative_state():
    rng = random.Random(10)
    for _ in range(200):
        balances, allowances = random_rows(rng, 5, 0)
        state = TokenState(
            tuple(balances), tuple(tuple(row) for row in allowances)
        )
        replica = ReplicaTokenState(balances, allowances)
        for account in range(5):
            assert sync_group(replica, account) == enabled_spenders(
                state, account
            )


def test_a_balance_that_is_not_positive_enables_the_owner_only():
    rng = random.Random(11)
    for _ in range(200):
        balances, allowances = random_rows(rng, 4, -3)
        replica = ReplicaTokenState(balances, allowances)
        for account in range(4):
            expected = {account}
            if balances[account] > 0:
                expected |= {
                    pid
                    for pid, amount in enumerate(allowances[account])
                    if amount > 0
                }
            assert sync_group(replica, account) == expected


def test_spenders_of_reads_one_row():
    assert spenders_of(2, 7, [0, 0, 0]) == {2}
    assert spenders_of(2, 7, [1, 0, 3]) == {0, 2}
    assert spenders_of(0, 0, [0, 9]) == {0}
    assert spenders_of(1, -1, [4, 0]) == {1}
