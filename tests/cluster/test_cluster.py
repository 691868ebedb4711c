"""Unit tests for the cluster's moving parts: shard map, lease protocol,
routing classes (owner-local / lease / escalation), backpressure, stats."""

from __future__ import annotations

import pytest

import repro.cluster.node as node_module
from repro.cluster import (
    ShardMap,
    TokenCluster,
    owner_local_workload,
)
from repro.config import ClusterConfig, EngineConfig
from repro.engine import Mempool, PipelinedExecutor
from repro.errors import ClusterError, MempoolFullError
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from repro.workloads import TokenWorkloadGenerator, WorkloadItem

ACCOUNTS = 32


def make_cluster(nodes=4, **knobs):
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    defaults = dict(num_nodes=nodes, lanes_per_node=4, window=16)
    defaults.update(knobs)
    return token, TokenCluster(token, ClusterConfig(**defaults))


def accounts_on_distinct_nodes(cluster) -> tuple[int, int]:
    """Two accounts whose shards different nodes own."""
    owner0 = cluster.shard_map.owner_of(0)
    for account in range(1, ACCOUNTS):
        if cluster.shard_map.owner_of(account) != owner0:
            return 0, account
    raise AssertionError("expected a multi-node ownership split")


def accounts_on_same_node(cluster) -> tuple[int, int]:
    owner0 = cluster.shard_map.owner_of(0)
    for account in range(1, ACCOUNTS):
        if cluster.shard_map.owner_of(account) == owner0:
            return 0, account
    raise AssertionError("expected two accounts on one node")


class TestShardMap:
    def test_initial_ownership_is_balanced_round_robin(self):
        shard_map = ShardMap(16, 4)
        sizes = [len(shard_map.shards_of_node(n)) for n in range(4)]
        assert sizes == [4, 4, 4, 4]
        for account in range(100):
            owner = shard_map.owner_of(account)
            assert owner == shard_map.shard_of(account) % 4

    def test_migrate_moves_lease_and_records_history(self):
        shard_map = ShardMap(8, 2)
        shard = shard_map.shard_of(5)
        old = shard_map.owner_of(5)
        new = 1 - old
        record = shard_map.migrate(shard, new, round_index=3)
        assert shard_map.owner_of(5) == new
        assert record.from_node == old and record.to_node == new
        assert shard_map.migrations == [record]

    def test_migrate_rejects_noop_and_unknown(self):
        shard_map = ShardMap(8, 2)
        with pytest.raises(ClusterError):
            shard_map.migrate(0, shard_map.owner_of_shard(0))
        with pytest.raises(ClusterError):
            shard_map.migrate(99, 0)
        with pytest.raises(ClusterError):
            shard_map.migrate(0, 7)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ClusterError):
            ShardMap(2, 4)
        with pytest.raises(ClusterError):
            ShardMap(4, 0)


class TestOwnerLocalTraffic:
    """The acceptance criterion: owner-local traffic on an N-node cluster
    executes with zero consensus messages and zero lease migrations."""

    @pytest.mark.parametrize("nodes", [2, 4, 8])
    def test_zero_coordination(self, nodes):
        token, cluster = make_cluster(nodes, window=32)
        items = owner_local_workload(cluster.shard_map, ACCOUNTS, 200, seed=9)
        state, responses, stats = cluster.run_workload(items)
        ref_state, ref_responses = token.run(
            [(item.pid, item.operation) for item in items]
        )
        assert state == ref_state
        assert responses == ref_responses
        assert stats.escalation_messages == 0
        assert stats.escalated_ops == 0
        assert stats.lease_migrations == 0
        assert stats.lease_messages == 0
        # Overflow spill may shed a few commuting singletons off their home
        # for balance (free — no coordination); everything else stays local.
        assert stats.owner_local_ops + stats.spill_ops == stats.ops_executed
        assert stats.owner_local_rate >= 0.9

    @pytest.mark.parametrize("depth", [1, 2])
    def test_owner_local_messages_are_only_forwards_and_results(self, depth):
        # A unit's ops ride inside its cl_run dispatch: one message per
        # unit, no per-op forward on the wire — at every pipeline depth.
        _, cluster = make_cluster(4, window=32, pipeline_depth=depth)
        items = owner_local_workload(cluster.shard_map, ACCOUNTS, 100, seed=2)
        cluster.run_workload(items)
        by_type = cluster.network.stats.by_type
        assert set(by_type) == {"cl_run", "cl_result"}
        assert by_type["cl_run"] == cluster.stats.units_dispatched
        assert (
            sum(bill.forwards_received for bill in cluster.stats.node_bills)
            == 100
        )


class TestLeaseProtocol:
    def test_cross_shard_uncontended_chain_migrates_ownership(self):
        token, cluster = make_cluster(4)
        a, b = accounts_on_distinct_nodes(cluster)
        # a credits b, then b spends twice: an uncontended cross-shard
        # chain (credit-enables-spend) with a busier node, resolved by a
        # lease handoff — never by consensus.
        cluster.submit(a, op("transfer", b, 3))
        cluster.submit(b, op("transfer", a, 2))
        cluster.submit(b, op("transfer", a, 1))
        stats = cluster.run()
        assert stats.lease_migrations >= 1
        assert stats.lease_messages == 3 * stats.lease_migrations
        assert stats.escalation_messages == 0
        moved = {record.shard for record in cluster.shard_map.migrations}
        assert (
            cluster.shard_map.shard_of(a) in moved
            or cluster.shard_map.shard_of(b) in moved
        )
        assert cluster.responses_in_order() == [True, True, True]
        # The routing view and the nodes' mirrored ownership agree.
        for node in cluster.nodes:
            assert node.owned_shards == set(
                cluster.shard_map.shards_of_node(node.node_id)
            )
        record = cluster.shard_map.migrations[0]
        assert record.from_node != record.to_node
        assert cluster.shard_map.owner_of_shard(record.shard) == record.to_node

    def test_lease_min_gain_suppresses_churn(self):
        _, cluster = make_cluster(4)
        a, b = accounts_on_distinct_nodes(cluster)
        # A 1-vs-1 split chain names no busier node: co-located without
        # a handoff.
        cluster.submit(a, op("transfer", b, 3))
        cluster.submit(b, op("transfer", a, 2))
        stats = cluster.run()
        assert stats.lease_migrations == 0
        assert cluster.responses_in_order() == [True, True]

    def test_majority_owner_wins_the_lease(self):
        _, cluster = make_cluster(4, window=8)
        a, b = accounts_on_distinct_nodes(cluster)
        owner_a = cluster.shard_map.owner_of(a)
        # Two ops anchored at a, one at b: a's owner is the busier node,
        # so b's shard migrates to it.
        cluster.submit(a, op("transfer", b, 1))
        cluster.submit(a, op("transfer", b, 1))
        cluster.submit(b, op("transfer", a, 1))
        stats = cluster.run()
        assert stats.lease_migrations == 1
        record = cluster.shard_map.migrations[0]
        assert record.to_node == owner_a
        assert cluster.shard_map.owner_of(b) == owner_a


class TestEscalation:
    def test_contended_cross_node_chain_escalates(self):
        token, cluster = make_cluster(4, window=8)
        a, b = accounts_on_distinct_nodes(cluster)
        c = (max(a, b) + 1) % ACCOUNTS
        # Chain: a credits b (anchor a) — uncontended link into the race on
        # b's account between owner-b and spender-a (two distinct processes
        # contending on bal(b)): contended members anchored at b, chain
        # spans owners of a and b.
        items = [
            WorkloadItem(a, op("transfer", b, 2)),
            WorkloadItem(b, op("approve", a, 5)),
            WorkloadItem(a, op("transferFrom", b, c, 1)),
            WorkloadItem(b, op("transfer", c, 1)),
        ]
        state, responses, stats = cluster.run_workload(items)
        ref_state, ref_responses = token.run(
            [(item.pid, item.operation) for item in items]
        )
        assert state == ref_state
        assert responses == ref_responses
        assert stats.escalated_ops > 0
        assert stats.escalation_messages > 0
        assert stats.escalation_time > 0

    def test_same_owner_contention_is_sequenced_locally(self):
        """The same race confined to one owner's shards never escalates —
        ownership is exactly the right to sequence it for free."""
        token, cluster = make_cluster(4, window=8)
        a, b = accounts_on_same_node(cluster)
        c = (max(a, b) + 1) % ACCOUNTS
        items = [
            WorkloadItem(a, op("transfer", b, 2)),
            WorkloadItem(b, op("approve", a, 5)),
            WorkloadItem(a, op("transferFrom", b, c, 1)),
            WorkloadItem(b, op("transfer", c, 1)),
        ]
        state, responses, stats = cluster.run_workload(items)
        ref_state, ref_responses = token.run(
            [(item.pid, item.operation) for item in items]
        )
        assert state == ref_state
        assert responses == ref_responses
        assert stats.escalated_ops == 0
        assert stats.escalation_messages == 0


class TestBackpressure:
    def test_bounded_mempool_raises_typed_rejection(self):
        pool = Mempool(capacity=2)
        pool.submit(0, op("balanceOf", 0))
        pool.submit(1, op("balanceOf", 1))
        with pytest.raises(MempoolFullError):
            pool.submit(2, op("balanceOf", 2))
        assert pool.rejected == 1
        assert pool.submitted == 2
        # Draining frees capacity again.
        pool.pop_window(2)
        pool.submit(2, op("balanceOf", 2))
        assert pool.submitted == 3

    def test_engine_surfaces_drop_counter(self):
        token = ERC20TokenType(8, total_supply=80)
        engine = PipelinedExecutor(
            token, EngineConfig(num_lanes=2, window=4, mempool_capacity=4)
        )
        for pid in range(4):
            engine.submit(pid, op("balanceOf", pid))
        with pytest.raises(MempoolFullError):
            engine.submit(4, op("balanceOf", 4))
        stats = engine.run()
        assert stats.rejected_ops == 1
        assert stats.as_dict()["rejected_ops"] == 1

    def test_engine_run_workload_paces_instead_of_rejecting(self):
        """A bounded engine executes rounds to make room: arbitrarily long
        workloads flow through a small pool, with zero drops."""
        token = ERC20TokenType(8, total_supply=80)
        engine = PipelinedExecutor(
            token, EngineConfig(num_lanes=2, window=4, mempool_capacity=6)
        )
        items = TokenWorkloadGenerator(8, seed=3).generate(40)
        state, responses, stats = engine.run_workload(items)
        ref_state, ref_responses = token.run(
            [(item.pid, item.operation) for item in items]
        )
        assert state == ref_state
        assert responses == ref_responses
        assert stats.ops_executed == 40
        assert stats.rejected_ops == 0

    def test_cluster_router_sheds_load_and_counts_drops(self):
        token, cluster = make_cluster(2, mempool_capacity=8)
        items = TokenWorkloadGenerator(ACCOUNTS, seed=4).generate(20)
        state, responses, stats = cluster.run_workload(items)
        assert stats.dropped_ops == 12
        assert len(responses) == 8
        # The admitted prefix matches the sequential run of that prefix.
        ref_state, ref_responses = token.run(
            [(item.pid, item.operation) for item in items[:8]]
        )
        assert state == ref_state
        assert responses == ref_responses

    def test_rejects_bad_capacity(self):
        with pytest.raises(Exception):
            Mempool(capacity=0)


class TestClusterStats:
    def test_round_trip_and_invariants(self):
        token, cluster = make_cluster(4, window=16)
        items = TokenWorkloadGenerator(ACCOUNTS, seed=6).generate(150)
        _, _, stats = cluster.run_workload(items)
        snapshot = stats.as_dict()
        assert snapshot["ops_executed"] == 150
        assert snapshot["rounds"] == len(stats.round_log)
        assert sum(b.ops_executed for b in stats.node_bills) == 150
        assert snapshot["makespan"] > 0
        assert snapshot["throughput"] == pytest.approx(
            150 / snapshot["makespan"]
        )
        assert 0.0 <= snapshot["owner_local_rate"] <= 1.0
        assert snapshot["cluster_messages"] == (
            cluster.network.stats.messages_sent
        )
        assert snapshot["load_imbalance"] >= 1.0
        assert len(snapshot["node_bills"]) == 4

    def test_hot_shard_burst_is_split_across_nodes(self):
        _, cluster = make_cluster(4, window=40)
        for i in range(40):
            cluster.submit(i % ACCOUNTS, op("balanceOf", 0))
        stats = cluster.run()
        assert stats.hot_split_ops > 0
        used = [b for b in stats.node_bills if b.ops_executed]
        assert len(used) > 1  # the burst did not pin to one node

    def test_determinism_same_seed_same_everything(self):
        _, c1 = make_cluster(4, seed=11)
        _, c2 = make_cluster(4, seed=11)
        items = TokenWorkloadGenerator(ACCOUNTS, seed=11).generate(120)
        s1, r1, st1 = c1.run_workload(items)
        s2, r2, st2 = c2.run_workload(items)
        assert (s1, r1) == (s2, r2)
        assert st1.as_dict() == st2.as_dict()


class TestFixedGeometry:
    """The shard ring and an op's cost are constants, not knobs."""

    @pytest.mark.parametrize("nodes", [1, 2, 3, 4, 8])
    def test_the_ring_is_eight_shards_a_node_and_at_least_16(self, nodes):
        _, cluster = make_cluster(nodes)
        shards = max(16, 8 * nodes)
        assert cluster.shard_map.num_shards == cluster.stats.num_shards
        assert cluster.shard_map.num_shards == shards
        owned = {
            len(cluster.shard_map.shards_of_node(node))
            for node in range(nodes)
        }
        assert owned == {shards // nodes}

    def test_every_placed_op_costs_one_unit(self, monkeypatch):
        unit = []  # per placed op: it lasts exactly one unit

        def timed(place):
            def tapped(*args, **kwargs):
                placed = place(*args, **kwargs)
                unit.extend(end == start + 1 for start, end, _ in placed)
                return placed

            return tapped

        for name in ("dag_list_schedule", "lane_fill"):
            monkeypatch.setattr(
                node_module, name, timed(getattr(node_module, name))
            )
        _, cluster = make_cluster(4)
        items = TokenWorkloadGenerator(ACCOUNTS, seed=6).generate(150)
        _, _, stats = cluster.run_workload(items)
        assert len(unit) == stats.ops_executed == 150
        assert all(unit)
        assert stats.op_cost == stats.as_dict()["op_cost"] == 1.0


class TestConfigValidation:
    def test_rejects_bad_cluster_config(self):
        token = ERC20TokenType(4, total_supply=40)
        with pytest.raises(ClusterError):
            TokenCluster(token, ClusterConfig(num_nodes=0))
        with pytest.raises(ClusterError):
            TokenCluster(token, ClusterConfig(num_nodes=2, window=0))

    def test_owner_local_workload_needs_a_transfer_pool(self):
        shard_map = ShardMap(16, 16)
        with pytest.raises(ClusterError):
            owner_local_workload(shard_map, 1, 10)
