"""Cluster-aware workload construction.

The cluster benchmarks need a workload that is *owner-local by
construction* — every operation's accounts fall inside a single node's
shards — to demonstrate the zero-coordination regime: N nodes, zero
consensus messages, zero lease migrations.  Account placement depends on
the deployment's :class:`~repro.cluster.sharding.ShardMap`, so the helper
lives here rather than in :mod:`repro.workloads`; the *skew* model,
however, is the shared one (:mod:`repro.workloads.skew`), so contention
sweeps stay comparable with every other generator in the repository.
"""

from __future__ import annotations

import random

from repro.errors import ClusterError
from repro.spec.operation import Operation
from repro.workloads.generators import WorkloadItem
from repro.workloads.skew import skew_drawer

from repro.cluster.sharding import ShardMap


def owner_local_workload(
    shard_map: ShardMap,
    num_accounts: int,
    count: int,
    seed: int = 0,
    read_fraction: float = 0.2,
    max_value: int = 10,
    zipf_s: float = 0.0,
    hotspot_fraction: float = 0.0,
    hotspot_nodes: int = 1,
) -> list[WorkloadItem]:
    """Seeded ERC20 traffic whose every operation stays on one owner node.

    Transfers pick source and destination from the same node's account
    set and are issued by the source's owner process (``pid == source``);
    reads query any account of one node.  Routed through a cluster
    deployed with the same ``shard_map`` geometry, every conflict-graph
    component anchors on a single owner: no leases, no consensus.

    The *node* draw goes through the shared skew model
    (:func:`repro.workloads.skew.skew_drawer`): ``zipf_s`` gives nodes a
    heavy-tailed popularity and ``hotspot_fraction`` routes that share of
    traffic onto the first ``hotspot_nodes`` nodes — the load-imbalance
    knob for lease and spill experiments, deterministic per seed.
    """
    by_node: dict[int, list[int]] = {}
    for account in range(num_accounts):
        by_node.setdefault(shard_map.owner_of(account), []).append(account)
    pools = [accounts for _, accounts in sorted(by_node.items())]
    if not any(len(pool) >= 2 for pool in pools):
        raise ClusterError(
            "owner-local transfers need a node owning at least two accounts"
        )
    rng = random.Random(seed)
    node = skew_drawer(rng, len(pools), zipf_s, hotspot_fraction, hotspot_nodes)
    items: list[WorkloadItem] = []
    for _ in range(count):
        pool = pools[node()]
        if rng.random() < read_fraction or len(pool) < 2:
            pid = rng.choice(pool)
            operation = Operation("balanceOf", (rng.choice(pool),))
        else:
            pid, dest = rng.sample(pool, 2)
            operation = Operation("transfer", (dest, rng.randint(0, max_value)))
        items.append(WorkloadItem(pid=pid, operation=operation))
    return items
