#!/usr/bin/env python3
"""Cluster quickstart: the paper's consensus-number-1 claim, distributed.

Deploys an ERC20 token on a virtual-time cluster (:mod:`repro.cluster`):
N shard-owning nodes, a routing edge, a shard-ownership lease protocol,
and a shared total-order lane that only contended cross-node conflicts
ever touch —

    clients -> router -> owner nodes          (point-to-point, no coordination)
                  |  \\-> lease handoffs       (3 messages per migrated shard)
                  \\---> total-order lane      (contended cross-node races only)

Three traffic patterns show the three coordination classes: owner-local
traffic (zero coordination messages), a cross-shard settlement chain
(resolved by a lease handoff), and a spender race spanning two owners
(the only traffic that pays for consensus).

Run:  python examples/cluster_quickstart.py
"""

from __future__ import annotations

from repro.cluster import ClusterConfig, TokenCluster, owner_local_workload
from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
)

RULE = "=" * 72
ACCOUNTS = 256
WINDOW = 128
OPS = 512


def show(title: str, stats) -> None:
    print(f"  {title}")
    print(
        f"    ops={stats.ops_executed}  rounds={stats.rounds}  "
        f"owner-local={stats.owner_local_rate:.0%}  "
        f"escalated={stats.escalation_rate:.0%}"
    )
    print(
        f"    makespan={stats.makespan:.1f}  "
        f"throughput={stats.throughput:.2f} ops/t  "
        f"messages: {stats.cluster_messages} cluster / "
        f"{stats.lease_messages} lease / "
        f"{stats.escalation_messages} consensus"
    )


def fresh_cluster(nodes: int = 4) -> tuple[ERC20TokenType, TokenCluster]:
    # The shipped ClusterConfig defaults: two rounds in flight and team
    # lanes for owner sets up to 4.
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    config = ClusterConfig(
        num_nodes=nodes, lanes_per_node=8, window=WINDOW
    )
    return token, TokenCluster(token, config)


def main() -> None:
    print(RULE)
    print("1. Owner-local traffic: independent owners, independent nodes")
    print(RULE)
    token, cluster = fresh_cluster()
    items = owner_local_workload(cluster.shard_map, ACCOUNTS, OPS, seed=7)
    _, _, stats = cluster.run_workload(items)
    show("4 nodes, every op inside one node's shards:", stats)
    assert stats.escalation_messages == 0 and stats.lease_migrations == 0
    print(
        "  Every operation anchors on an account its node owns: the round"
        " trip is\n  one forward and one reply — zero consensus messages,"
        " zero lease\n  migrations, for any cluster size.\n"
    )

    print(RULE)
    print("2. Random owner traffic: the cluster vs one 8-lane engine")
    print(RULE)
    items = TokenWorkloadGenerator(
        ACCOUNTS, seed=7, mix=OWNER_ONLY_MIX
    ).generate(OPS)
    engine = PipelinedExecutor(
        ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS),
        EngineConfig(num_lanes=8, window=WINDOW),
    )
    _, _, engine_stats = engine.run_workload(items)
    token, cluster = fresh_cluster()
    _, _, stats = cluster.run_workload(items)
    show("4 nodes x 8 lanes:", stats)
    print(
        f"    single-node engine: {engine_stats.throughput:.2f} ops/t"
        f"  ->  cluster speedup "
        f"{stats.throughput / engine_stats.throughput:.2f}x"
    )
    print(
        f"  Cross-shard settlement chains were resolved by"
        f" {stats.lease_migrations} lease handoffs\n  "
        f"({stats.lease_messages} messages) — ownership migrates to the"
        " busier node instead of\n  paying a consensus round.\n"
    )

    print(RULE)
    print("3. Spender races: only contended cross-node conflicts pay")
    print(RULE)
    items = TokenWorkloadGenerator(
        ACCOUNTS, seed=7, mix=SPENDER_HEAVY_MIX
    ).generate(OPS)
    token, cluster = fresh_cluster()
    _, _, stats = cluster.run_workload(items)
    show("4 nodes, approve/transferFrom-heavy:", stats)
    print(
        "  Synchronization groups confined to one owner are sequenced"
        " locally for\n  free; only the races spanning two owners went"
        " through the shared\n  total-order lane — and only they paid its"
        " quadratic message bill."
    )


if __name__ == "__main__":
    main()
