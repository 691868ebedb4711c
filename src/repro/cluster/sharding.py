"""Shard ownership: which cluster node serves which account shards.

Accounts hash into a fixed ring of ``num_shards`` shards (a stable
multiplicative hash, :func:`~repro.engine.shard.stable_account_hash`,
the same in every run); each shard is owned by exactly one node.  The map
is the router's authoritative view — nodes mirror their owned set through
the lease messages — and every mutation is recorded, so a benchmark can
replay the full lease schedule of a run.

Ownership is a *routing* concept, not a safety one: the serial-equivalence
argument of the cluster only needs conflict-graph components to be
co-located per round, which the router guarantees for any ownership map.
That is why lease migrations can chase load freely — any schedule of
handoffs yields the same final state and responses (machine-checked in
``tests/cluster/test_cluster_properties.py``).
"""

from __future__ import annotations

from repro._records import record
from repro.engine.shard import stable_account_hash
from repro.errors import ClusterError


@record(frozen=True, slots=True)
class LeaseRecord:
    """One completed shard-ownership handoff."""

    shard: int
    from_node: int
    to_node: int
    round_index: int


class ShardMap:
    """Account → shard → owner-node mapping with migration history."""

    def __init__(self, num_shards: int, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ClusterError("cluster needs at least one node")
        if num_shards < num_nodes:
            raise ClusterError(
                f"need at least one shard per node "
                f"({num_shards} shards < {num_nodes} nodes)"
            )
        self.num_shards = num_shards
        self.num_nodes = num_nodes
        #: shard -> owning node; round-robin at deployment.
        self._owner: dict[int, int] = {
            shard: shard % num_nodes for shard in range(num_shards)
        }
        self.migrations: list[LeaseRecord] = []

    # ------------------------------------------------------------------

    def shard_of(self, account: int) -> int:
        """The shard an account hashes into (stable across runs)."""
        return stable_account_hash(account) % self.num_shards

    def owner_of(self, account: int) -> int:
        """The node currently owning an account's shard."""
        return self._owner[self.shard_of(account)]

    def owner_of_shard(self, shard: int) -> int:
        if shard not in self._owner:
            raise ClusterError(f"unknown shard {shard}")
        return self._owner[shard]

    def shards_of_node(self, node_id: int) -> list[int]:
        """All shards a node currently owns (sorted)."""
        return sorted(s for s, n in self._owner.items() if n == node_id)

    def migrate(
        self, shard: int, to_node: int, round_index: int = -1
    ) -> LeaseRecord:
        """Hand a shard's lease to another node; returns the record."""
        if not 0 <= to_node < self.num_nodes:
            raise ClusterError(f"unknown node {to_node}")
        from_node = self.owner_of_shard(shard)
        if from_node == to_node:
            raise ClusterError(
                f"shard {shard} already owned by node {to_node}"
            )
        self._owner[shard] = to_node
        record = LeaseRecord(shard, from_node, to_node, round_index)
        self.migrations.append(record)
        return record
