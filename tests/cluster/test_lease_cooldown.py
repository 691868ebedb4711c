"""Lease anti-churn: the cooldown stops alternating-round ping-pong.

Two chains alternate majority ownership of one account's shard: rounds
anchored at node 0 pull the shard over, rounds anchored at node 1 pull it
back.  Without hysteresis every round migrates the lease; with
``lease_cooldown`` the shard is pinned for the configured rounds after a
move, suppressed handoffs are counted, and — because co-location, not
ownership, is the safety argument — the outcome never changes.
"""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.spec.operation import Operation
from repro.workloads import WorkloadItem

ACCOUNTS = 24
WINDOW = 3


def pick_accounts(cluster: TokenCluster) -> tuple[int, int, int]:
    """(a, b, c): a on node 0, b and c on node 1 with distinct shards."""
    shard_map = cluster.shard_map
    a = next(acc for acc in range(ACCOUNTS) if shard_map.owner_of(acc) == 0)
    b = next(acc for acc in range(ACCOUNTS) if shard_map.owner_of(acc) == 1)
    c = next(
        acc
        for acc in range(ACCOUNTS)
        if shard_map.owner_of(acc) == 1
        and shard_map.shard_of(acc) != shard_map.shard_of(b)
    )
    return a, b, c


def ping_pong_workload(
    a: int, b: int, c: int, rounds: int
) -> list[WorkloadItem]:
    """Alternating uncontended cross-shard chains tugging at b's shard.

    Even rounds: two transfers by ``a`` crediting ``b`` plus one by ``b``
    — majority at node 0, so the router migrates ``b``'s shard there.
    Odd rounds: the mirror image anchored at ``c`` (node 1) pulls it back.
    Each chain is one window (three operations, no contention — distinct
    contended cells — so the lease branch, not escalation, resolves it).
    """
    items: list[WorkloadItem] = []
    for round_index in range(rounds):
        puller = a if round_index % 2 == 0 else c
        items.extend(
            [
                WorkloadItem(puller, Operation("transfer", (b, 1))),
                WorkloadItem(puller, Operation("transfer", (b, 1))),
                WorkloadItem(b, Operation("transfer", (puller, 1))),
            ]
        )
    return items


def run(items, cooldown: int):
    token = ERC20TokenType(
        ACCOUNTS, initial_state=TokenState.create([50] * ACCOUNTS)
    )
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=2,
            lanes_per_node=2,
            window=WINDOW,
            seed=11,
            lease_cooldown=cooldown,
        ),
    )
    state, responses, stats = cluster.run_workload(items)
    return cluster, state, responses, stats


class TestLeaseCooldown:
    def test_without_cooldown_the_shard_ping_pongs(self):
        probe = TokenCluster(
            ERC20TokenType(ACCOUNTS, total_supply=0),
            ClusterConfig(num_nodes=2, window=WINDOW),
        )
        a, b, c = pick_accounts(probe)
        items = ping_pong_workload(a, b, c, rounds=8)
        cluster, _, _, stats = run(items, cooldown=0)
        shard_b = cluster.shard_map.shard_of(b)
        moves = [
            record
            for record in cluster.shard_map.migrations
            if record.shard == shard_b
        ]
        # The lease chases the majority every round: back and forth.
        assert len(moves) >= 6
        assert {m.to_node for m in moves} == {0, 1}
        assert stats.lease_cooldown_skips == 0

    def test_cooldown_suppresses_the_churn(self):
        probe = TokenCluster(
            ERC20TokenType(ACCOUNTS, total_supply=0),
            ClusterConfig(num_nodes=2, window=WINDOW),
        )
        a, b, c = pick_accounts(probe)
        items = ping_pong_workload(a, b, c, rounds=8)
        churn, _, _, churn_stats = run(items, cooldown=0)
        calm, _, _, calm_stats = run(items, cooldown=3)
        shard_b = churn.shard_map.shard_of(b)
        churn_moves = sum(
            1 for r in churn.shard_map.migrations if r.shard == shard_b
        )
        calm_moves = sum(
            1 for r in calm.shard_map.migrations if r.shard == shard_b
        )
        assert calm_moves < churn_moves
        assert calm_stats.lease_cooldown_skips > 0
        assert calm_stats.lease_migrations < churn_stats.lease_migrations

    @pytest.mark.parametrize("cooldown", [0, 1, 3, 10])
    def test_cooldown_never_changes_the_outcome(self, cooldown):
        probe = TokenCluster(
            ERC20TokenType(ACCOUNTS, total_supply=0),
            ClusterConfig(num_nodes=2, window=WINDOW),
        )
        a, b, c = pick_accounts(probe)
        items = ping_pong_workload(a, b, c, rounds=6)
        token = ERC20TokenType(
            ACCOUNTS, initial_state=TokenState.create([50] * ACCOUNTS)
        )
        ref_state, ref_responses = token.run(
            [(item.pid, item.operation) for item in items]
        )
        _, state, responses, _ = run(items, cooldown=cooldown)
        assert state == ref_state
        assert responses == ref_responses

    def test_negative_cooldown_rejected(self):
        from repro.errors import ClusterError

        with pytest.raises(ClusterError):
            TokenCluster(
                ERC20TokenType(4, total_supply=4),
                ClusterConfig(num_nodes=2, num_shards=4, lease_cooldown=-1),
            )
