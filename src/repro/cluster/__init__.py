"""repro.cluster — distributed token processing with shard-ownership leases.

The paper's claim that most token operations have consensus number 1 is
fundamentally *distributed*: independent owners should be served by
independent machines with zero coordination.  This package realizes that
on the repository's virtual-time network: each lane of the single-process
engine (:mod:`repro.engine`) becomes a real :mod:`repro.net` node running
the same round loop over the account shards it owns.

Topology and traffic classes::

    clients -> Router -> ClusterNode 0..N-1        (point-to-point forwards)
                  |  \\-> lease protocol            (3 msgs / migrated shard)
                  \\---> TieredEscalator             (contended cross-node only)

* owner-local components: forward + reply, zero coordination messages —
  the consensus-number-1 regime at the message level;
* cross-shard uncontended chains: a shard-ownership lease handoff
  (request/grant/ack) migrates ownership to the busier node;
* contended cross-node conflicts: exactly the contended members pay the
  shared total-order lane's three-phase quadratic bill.

Serial equivalence holds for any node count and any lease schedule
because the router co-locates whole conflict-graph components per round
(machine-checked in ``tests/cluster/``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.config": ("ClusterConfig",),
    "repro.cluster.cluster": ("TokenCluster",),
    "repro.cluster.node": ("ClusterNode",),
    "repro.cluster.router": ("LEASE_MESSAGE_TYPES", "Router"),
    "repro.cluster.sharding": ("LeaseRecord", "ShardMap"),
    "repro.cluster.stats": ("ClusterRound", "ClusterStats", "NodeBill"),
    "repro.cluster.workloads": ("owner_local_workload",),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
